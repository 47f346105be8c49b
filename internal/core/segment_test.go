package core

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// loadedDB loads enough random documents into collection d that ANALYZE
// can freeze several full pages into column-striped segments
// (rowsPerPage = 128, so 400 documents give three freezable pages plus a
// row-form tail). Nothing is analyzed yet: every page is in row form.
func loadedDB(t *testing.T) *DB {
	t.Helper()
	// The planner caps workers at GOMAXPROCS; raise it so the parallel
	// legs genuinely parallelize even on single-CPU runners.
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	db := Open(DefaultConfig())
	if err := db.CreateCollection("d"); err != nil {
		t.Fatal(err)
	}
	docs := randomDocs(rand.New(rand.NewSource(7)), 400)
	if _, err := db.LoadDocuments("d", docs); err != nil {
		t.Fatal(err)
	}
	return db
}

// segmentDB is loadedDB after ANALYZE froze its full pages.
func segmentDB(t *testing.T) (*DB, int) {
	t.Helper()
	db := loadedDB(t)
	if err := db.RDBMS().Analyze("d"); err != nil {
		t.Fatal(err)
	}
	frozen := frozenPages(t, db)
	if frozen == 0 {
		t.Fatal("ANALYZE froze no pages; striped path untested")
	}
	return db, frozen
}

func frozenPages(t *testing.T, db *DB) int {
	t.Helper()
	heap, _, err := db.RDBMS().Table("d")
	if err != nil {
		t.Fatal(err)
	}
	return heap.NumFrozenPages()
}

func mustSet(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.RDBMS().Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// sortedResultKey flattens a result to an order-insensitive comparable
// string: the parallel leg's gather may interleave partitions.
func sortedResultKey(res *QueryResult) string {
	lines := strings.Split(resultKey(res), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// segmentLegs are the executor configurations every query must agree
// across: the row-at-a-time reference, the serial batch scan, and the
// batch scan partitioned under a parallel gather.
var segmentLegs = []struct {
	name  string
	stmts []string
}{
	{"row", []string{`SET enable_batch = off`, `SET max_parallel_workers = 1`}},
	{"striped", []string{`SET enable_batch = on`, `SET max_parallel_workers = 1`}},
	{"striped-parallel", []string{
		`SET enable_batch = on`,
		`SET max_parallel_workers = 4`, `SET parallel_scan_min_pages = 1`}},
}

// runSegmentLegs runs every query under every leg and fails on any
// divergence from the row-mode reference.
func runSegmentLegs(t *testing.T, db *DB, phase string, queries []string) {
	t.Helper()
	for _, q := range queries {
		var ref string
		for _, leg := range segmentLegs {
			mustSet(t, db, leg.stmts...)
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s/%s: %s: %v", phase, leg.name, q, err)
			}
			key := sortedResultKey(res)
			if leg.name == "row" {
				ref = key
				continue
			}
			if key != ref {
				t.Errorf("%s/%s: %s diverges from row mode\nrow:\n%s\n%s:\n%s",
					phase, leg.name, q, ref, leg.name, key)
			}
		}
	}
	mustSet(t, db, segmentLegs[0].stmts...) // leave in a known state
}

// TestStripedSegmentDifferential pins the scan's correctness contract:
// every executor leg returns the same rows over a heap never analyzed,
// with cold pages frozen into per-attribute segments, with a row-form
// tail loaded behind them, and after an UPDATE un-freezes pages
// mid-table, leaving a frozen/row-form mix. A predicate that fails on a
// row-form page fails with the row engine's error on every leg.
func TestStripedSegmentDifferential(t *testing.T) {
	queries := []string{
		`SELECT name FROM d`,
		`SELECT name, num, score, flag FROM d`,
		`SELECT "user.lang", name FROM d`,
		`SELECT dyn, num FROM d`,
		`SELECT name, num FROM d WHERE num >= 10`,
		`SELECT COUNT(*) FROM d WHERE score IS NOT NULL`,
		// In-scan selection: the scan compiles these predicates into
		// selection-vector kernels over the page's attribute vectors,
		// including string matches over extracted virtual keys.
		`SELECT * FROM d WHERE name = 'frosty' OR num < 5`,
		`SELECT num FROM d WHERE "user.lang" = 'en' AND num >= 0`,
		// Cardinality-changing consumers above selection-carrying batches.
		// Unique ordered groups keep the LIMIT prefix deterministic across
		// the serial and parallel legs.
		`SELECT num, COUNT(*) FROM d WHERE num >= 5 GROUP BY num ORDER BY num LIMIT 7`,
		`SELECT name, num FROM d WHERE num < 15 ORDER BY num, name LIMIT 9`,
	}
	db := loadedDB(t)
	runSegmentLegs(t, db, "never analyzed", queries)

	if err := db.RDBMS().Analyze("d"); err != nil {
		t.Fatal(err)
	}
	frozen := frozenPages(t, db)
	if frozen == 0 {
		t.Fatal("ANALYZE froze no pages; striped path untested")
	}
	runSegmentLegs(t, db, "frozen", queries)

	// Load a tail behind the frozen pages without re-analyzing. Its last
	// document holds a num no other document has, so the predicate below
	// divides by zero on a row-form page only.
	tail := randomDocs(rand.New(rand.NewSource(8)), 150)
	tail[len(tail)-1].Set("num", jsonx.IntValue(999))
	if _, err := db.LoadDocuments("d", tail); err != nil {
		t.Fatal(err)
	}
	if got := frozenPages(t, db); got != frozen {
		t.Fatalf("loading the tail changed frozen pages %d -> %d", frozen, got)
	}
	runSegmentLegs(t, db, "row-form tail", queries)
	const divZero = `SELECT name FROM d WHERE 1 / (num - 999) > 0`
	var rowErr error
	for _, leg := range segmentLegs {
		mustSet(t, db, leg.stmts...)
		_, err := db.Query(divZero)
		if leg.name == "row" {
			if rowErr = err; err == nil {
				t.Fatalf("row mode: %s did not fail", divZero)
			}
			continue
		}
		if err == nil || err.Error() != rowErr.Error() {
			t.Errorf("%s: %s failed with %v, row mode with %v", leg.name, divZero, err, rowErr)
		}
	}

	// UPDATE rows scattered across the table: the touched pages un-freeze
	// back to row form, so scans now cross a frozen/row-form mix.
	mustSet(t, db, `SET enable_batch = on`)
	if _, err := db.Query(`UPDATE d SET name = 'frosty' WHERE num = 7`); err != nil {
		t.Fatal(err)
	}
	after := frozenPages(t, db)
	if after >= frozen {
		t.Fatalf("UPDATE left frozen pages at %d (was %d); expected un-freeze", after, frozen)
	}
	runSegmentLegs(t, db, "mixed", queries)

	// Re-ANALYZE re-freezes the cooled pages and the legs still agree.
	if err := db.RDBMS().Analyze("d"); err != nil {
		t.Fatal(err)
	}
	if got := frozenPages(t, db); got <= after {
		t.Fatalf("re-ANALYZE refroze nothing: %d pages (was %d)", got, after)
	}
	runSegmentLegs(t, db, "refrozen", queries)
}

// TestStripedExplainAnnotation pins the EXPLAIN surface: scans over a
// segmented heap advertise the striped path, filtered scans the in-scan
// selection, and a heap with no frozen pages is not called striped.
func TestStripedExplainAnnotation(t *testing.T) {
	db, _ := segmentDB(t)
	text, err := db.Explain(`SELECT name, num FROM d`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "striped") {
		t.Errorf("EXPLAIN should show the striped scan:\n%s", text)
	}
	// Predicates do not disqualify striping: they compile into the
	// in-scan selection filter, and the plan advertises the sel path.
	text, err = db.Explain(`SELECT name FROM d WHERE num >= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "striped") {
		t.Errorf("EXPLAIN of a filtered scan should still show striped:\n%s", text)
	}
	if !strings.Contains(text, "sel") {
		t.Errorf("EXPLAIN of a filtered striped scan should show the sel path:\n%s", text)
	}
	// A striped scan with a predicate stays striped under Gather: the
	// partition scans evaluate the shared SelFilter in-scan.
	mustSet(t, db, `SET max_parallel_workers = 4`, `SET parallel_scan_min_pages = 1`)
	text, err = db.Explain(`SELECT name FROM d WHERE num >= 10`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parallel", "striped", "sel"} {
		if !strings.Contains(text, want) {
			t.Errorf("parallel filtered EXPLAIN should show %q:\n%s", want, text)
		}
	}
	// A never-analyzed collection has only row-form pages: its filtered
	// scan still selects in-scan but reads no segments.
	mustSet(t, db, `SET max_parallel_workers = 1`)
	if err := db.CreateCollection("raw"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments("raw", randomDocs(rand.New(rand.NewSource(9)), 50)); err != nil {
		t.Fatal(err)
	}
	text, err = db.Explain(`SELECT name FROM raw WHERE num >= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "striped") || !strings.Contains(text, "sel") {
		t.Errorf("EXPLAIN over a never-analyzed heap should show sel, not striped:\n%s", text)
	}
}

// statCounter pulls one counter out of sinew_stats()'s one-line summary.
func statCounter(t *testing.T, db *DB, key string) int64 {
	t.Helper()
	res, err := db.Query(`SELECT sinew_stats()`)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Rows[0][0].S
	for _, field := range strings.Fields(text) {
		if rest, ok := strings.CutPrefix(field, key+"="); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("sinew_stats %s: %v in %q", key, err, text)
			}
			return v
		}
	}
	t.Fatalf("sinew_stats output lacks %s: %q", key, text)
	return 0
}

// TestSinewStatsSegmentCounters checks the observability surface: the
// segment totals move as pages freeze, are scanned, and un-freeze.
func TestSinewStatsSegmentCounters(t *testing.T) {
	db, frozen := segmentDB(t)
	if got := statCounter(t, db, "segments_total"); got != int64(frozen) {
		t.Errorf("segments_total = %d, want %d", got, frozen)
	}

	scanned := statCounter(t, db, "segments_scanned")
	if _, err := db.Query(`SELECT name, num FROM d`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "segments_scanned"); got <= scanned {
		t.Errorf("segments_scanned stuck at %d after a striped scan", got)
	}

	unfrozen := statCounter(t, db, "segment_pages_unfrozen")
	if _, err := db.Query(`UPDATE d SET name = 'thaw' WHERE num = 3`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "segment_pages_unfrozen"); got <= unfrozen {
		t.Errorf("segment_pages_unfrozen stuck at %d after UPDATE", got)
	}
	if got := statCounter(t, db, "segments_total"); got >= int64(frozen) {
		t.Errorf("segments_total = %d after un-freeze, want < %d", got, frozen)
	}
}

// TestSinewStatsSelCounters checks the selection-vector observability
// surface: filtered striped scans count the sel batches they emit, and
// striped scans under a parallel gather are counted separately.
func TestSinewStatsSelCounters(t *testing.T) {
	db, _ := segmentDB(t)
	mustSet(t, db, `SET enable_batch = on`, `SET max_parallel_workers = 1`)
	selBefore := statCounter(t, db, "sel_vector_batches")
	if _, err := db.Query(`SELECT name, num FROM d WHERE num >= 10`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "sel_vector_batches"); got <= selBefore {
		t.Errorf("sel_vector_batches stuck at %d after a filtered striped scan", got)
	}

	parBefore := statCounter(t, db, "parallel_striped_scans")
	mustSet(t, db, `SET max_parallel_workers = 4`, `SET parallel_scan_min_pages = 1`)
	if _, err := db.Query(`SELECT name, num FROM d WHERE num >= 10`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "parallel_striped_scans"); got <= parBefore {
		t.Errorf("parallel_striped_scans stuck at %d after a parallel striped scan", got)
	}
}

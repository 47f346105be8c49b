package core

import (
	"strings"
	"testing"
)

// TestOrderByDifferential pins the batch-native sort's correctness
// contract: ORDER BY (multi-key, ASC/DESC, NULL ordering, virtual and
// multi-typed keys) and ORDER BY + LIMIT return byte-identical results —
// same rows, same order — across the row reference, the serial batch
// pipeline over the striped scan, and the parallel sorted-merge gather. The
// comparison is order-preserving on purpose: local stable sorts over
// ascending page ranges merged with a partition-index tie-break must
// reproduce the serial stable sort exactly, ties included.
func TestOrderByDifferential(t *testing.T) {
	db, _ := segmentDB(t)
	queries := []string{
		// Ties on num exercise stability across every leg.
		`SELECT name, num FROM d ORDER BY num`,
		`SELECT name, num, score FROM d ORDER BY num DESC, name`,
		// Sparse key: NULLs last ascending, first descending.
		`SELECT num, score FROM d ORDER BY score, num`,
		`SELECT num, score FROM d ORDER BY score DESC, num DESC`,
		// Virtual key below the sort; multi-typed key ordered by type tag.
		`SELECT "user.lang", num FROM d ORDER BY "user.lang" DESC, num`,
		`SELECT dyn, num FROM d ORDER BY dyn, num`,
		// Filtered input: the sorter consumes selection-carrying batches.
		`SELECT name, num FROM d WHERE num >= 5 ORDER BY num, name`,
		// Top-N substitution, bounded and unbounded-looking limits.
		`SELECT name, num FROM d ORDER BY num, name LIMIT 13`,
		`SELECT num FROM d WHERE num < 15 ORDER BY num DESC LIMIT 5`,
		`SELECT name, num FROM d ORDER BY num LIMIT 100000`,
	}
	for _, q := range queries {
		var ref string
		for _, leg := range segmentLegs {
			mustSet(t, db, leg.stmts...)
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", leg.name, q, err)
			}
			key := resultKey(res) // order-preserving
			if leg.name == "row" {
				ref = key
				continue
			}
			if key != ref {
				t.Errorf("%s: %s diverges from row mode\nrow:\n%s\n%s:\n%s",
					leg.name, q, ref, leg.name, key)
			}
		}
	}
	mustSet(t, db, segmentLegs[0].stmts...)
}

// TestOrderByExplain pins the EXPLAIN surface of the sorted-merge gather:
// a parallel ORDER BY shows "Gather" with "Merge: sorted", ORDER BY +
// LIMIT substitutes a bounded "Top-N", and the serial batch plan labels
// its sort as batch.
func TestOrderByExplain(t *testing.T) {
	db, _ := segmentDB(t)
	mustSet(t, db, `SET enable_batch = on`,
		`SET max_parallel_workers = 4`, `SET parallel_scan_min_pages = 1`)

	text, err := db.Explain(`SELECT name, num FROM d ORDER BY num`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Gather", "Merge: sorted"} {
		if !strings.Contains(text, want) {
			t.Errorf("parallel ORDER BY EXPLAIN should show %q:\n%s", want, text)
		}
	}

	text, err = db.Explain(`SELECT name, num FROM d ORDER BY num LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Top-N", "Merge: sorted"} {
		if !strings.Contains(text, want) {
			t.Errorf("parallel ORDER BY LIMIT EXPLAIN should show %q:\n%s", want, text)
		}
	}

	mustSet(t, db, `SET max_parallel_workers = 1`)
	text, err = db.Explain(`SELECT name, num FROM d ORDER BY num`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Sort") || !strings.Contains(text, "(batch)") {
		t.Errorf("serial batch ORDER BY EXPLAIN should show a batch Sort:\n%s", text)
	}
	mustSet(t, db, segmentLegs[0].stmts...)
}

// TestSinewStatsSortCounters checks the sort observability surface:
// batch sorts count the batches they accumulate, parallel sorts count
// their merge partitions, and bounded Top-N counts heap short-circuits.
func TestSinewStatsSortCounters(t *testing.T) {
	db, _ := segmentDB(t)
	mustSet(t, db, `SET enable_batch = on`, `SET max_parallel_workers = 1`)
	before := statCounter(t, db, "sort_batches")
	if _, err := db.Query(`SELECT name, num FROM d ORDER BY num`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "sort_batches"); got <= before {
		t.Errorf("sort_batches stuck at %d after a batch sort", got)
	}

	mustSet(t, db, `SET max_parallel_workers = 4`, `SET parallel_scan_min_pages = 1`)
	mergeBefore := statCounter(t, db, "sorted_merge_partitions")
	if _, err := db.Query(`SELECT name, num FROM d ORDER BY num`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "sorted_merge_partitions"); got <= mergeBefore {
		t.Errorf("sorted_merge_partitions stuck at %d after a parallel sort", got)
	}

	shortBefore := statCounter(t, db, "topn_short_circuits")
	if _, err := db.Query(`SELECT name, num FROM d ORDER BY num LIMIT 3`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "topn_short_circuits"); got <= shortBefore {
		t.Errorf("topn_short_circuits stuck at %d after a Top-N over 400 rows", got)
	}
	mustSet(t, db, segmentLegs[0].stmts...)
}

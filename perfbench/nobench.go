package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// The nobench-read workload: the paper's §6 NoBench dataset with the §6.1
// materialization, read by one closed-loop client cycling over Q1–Q11.
const (
	nobenchRecords = 40000
	nobenchTable   = "nobench_main"
	// setupRepeats is how many times a run sets the database up; setup_s
	// is the median.
	setupRepeats = 3
)

var nobenchQueryIDs = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11"}

// nobenchMaterialized is the §6.1 outcome: str1, num, nested_arr,
// nested_obj and thousandth are physical columns, the rest stay virtual.
var nobenchMaterialized = []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"}

// nobenchExpect is the oracle: each query's row count, Q10's count per
// group, computed from the generated documents with plain loops.
type nobenchExpect struct {
	rows []int
	q10  map[int64]int64
}

func nobenchOracle(docs []*jsonx.Doc, p nobench.Params) nobenchExpect {
	lo, hi := p.RangeBounds()
	dlo, dhi := p.DynBounds()
	str := func(d *jsonx.Doc, k string) (string, bool) {
		v, ok := d.Get(k)
		return v.S, ok && v.Kind == jsonx.String
	}
	num := func(d *jsonx.Doc, k string) (int64, bool) {
		v, ok := d.Get(k)
		return v.I, ok && v.Kind == jsonx.Int
	}
	e := nobenchExpect{rows: make([]int, len(nobenchQueryIDs)), q10: map[int64]int64{}}
	str1s := map[string]int{}
	for _, d := range docs {
		s, _ := str(d, "str1")
		str1s[s]++
	}
	for _, d := range docs {
		for q := 0; q < 4; q++ {
			e.rows[q]++ // Q1–Q4 project every document
		}
		if s, _ := str(d, "str1"); s == p.Str1Probe() {
			e.rows[4]++
		}
		n, _ := num(d, "num")
		inRange := n >= lo && n <= hi
		if inRange {
			e.rows[5]++
		}
		if v, ok := num(d, "dyn1"); ok && v >= dlo && v <= dhi {
			e.rows[6]++
		}
		if arr, ok := d.Get("nested_arr"); ok {
			for _, el := range arr.A {
				if el.Kind == jsonx.String && el.S == p.ArrayProbe() {
					e.rows[7]++
					break
				}
			}
		}
		if s, ok := str(d, p.SparseQueryKey()); ok && s == p.SparseProbe() {
			e.rows[8]++
		}
		if inRange {
			t, _ := num(d, "thousandth")
			e.q10[t]++
			if obj, ok := d.Get("nested_obj"); ok && obj.Obj != nil {
				if s, ok := str(obj.Obj, "str"); ok {
					e.rows[10] += str1s[s]
				}
			}
		}
	}
	e.rows[9] = len(e.q10)
	return e
}

// check compares one query's result with the oracle.
func (e nobenchExpect) check(q int, rows []storage.Row) error {
	if len(rows) != e.rows[q] {
		return fmt.Errorf("%s: %d rows, want %d", nobenchQueryIDs[q], len(rows), e.rows[q])
	}
	if q == 9 {
		for _, r := range rows {
			if len(r) != 2 || r[1].I != e.q10[r[0].I] {
				return fmt.Errorf("Q10: group %v has count %v, want %d", r[0], r[1], e.q10[r[0].I])
			}
		}
	}
	return nil
}

func runNobenchRead(cfg config) (*outcome, error) {
	o := newOutcome()
	n := cfg.scaled(nobenchRecords, batchSize)
	o.scale["documents"] = n
	params := nobench.NewParams(n)
	params.Table = nobenchTable
	docs := nobench.Generate(n, cfg.seed)
	batches, inputBytes := ndjsonBatches(docs, batchSize)
	want := nobenchOracle(docs, params)
	docs = nil
	queries := params.Queries()
	texts := make([]string, len(nobenchQueryIDs))
	for i, q := range nobenchQueryIDs {
		texts[i] = queries[q]
	}

	var tr *tracer
	repeats := setupRepeats
	if cfg.trace {
		tr, repeats = newTracer(), 1
	}
	su, batchLat, err := setUpRepeated(o, repeats, nobenchTable, nobenchMaterialized, batches, tr)
	if err != nil {
		return nil, err
	}
	db := su.db
	if err := tailSamples(len(batchLat), 0.95); err != nil && cfg.scale == 1 && !cfg.trace {
		return nil, fmt.Errorf("ingest p95: %w", err)
	}
	loadTime := time.Duration(0)
	for _, d := range batchLat {
		loadTime += d
	}
	o.e2e["ingest_docs_per_s"] = float64(n*repeats) / loadTime.Seconds()
	o.e2e["ingest_p50_ms"] = percentileMs(batchLat, 0.5)
	o.e2e["ingest_p95_ms"] = percentileMs(batchLat, 0.95)
	o.samples["ingest_batches"] = len(batchLat)

	reads := inProcessReads{
		db:      db,
		classes: len(texts),
		sql:     func(q int) string { return texts[q] },
		check:   want.check,
	}
	execMs, err := reads.measure(o, cfg, cfg.window())
	if err != nil {
		return nil, err
	}
	for q, v := range execMs {
		o.layers["exec."+nobenchQueryIDs[q]+"_ms"] = v
	}
	if cfg.trace {
		loadLayers(o.layers, tr.spans, su.ld)
		o.spans = append(tr.spans, o.spans...)
	}
	batches = nil
	footprint(o, db.DatabaseSizeBytes(), inputBytes)
	runtime.KeepAlive(db)
	return o, nil
}

package main

import (
	"fmt"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// inProcessReads is a closed-loop, in-process read mix over one database.
type inProcessReads struct {
	db      *core.DB
	classes int
	// sql returns the text of the next statement of a class; check
	// compares its rows with the oracle.
	sql   func(class int) string
	check func(class int, rows []storage.Row) error
}

// measure warms up with one pass over the mix and a collection, then runs
// the mix through core.DB.Query (the plan-cached path users take) for the
// window and reports the read metrics. A traced run spends the first half
// of the window on that path, for the counters, and the second half on the
// uncached chain with a span around each layer; it returns the median
// execute time of each class from the second half.
func (r inProcessReads) measure(o *outcome, cfg config, window time.Duration) ([]float64, error) {
	query := func(c int, _ int64) (int, error) {
		res, err := r.db.Query(r.sql(c))
		if err != nil {
			return 0, err
		}
		return len(res.Rows), r.check(c, res.Rows)
	}
	closedLoop(o, 0, r.classes, query)
	gcSettle()

	if cfg.trace {
		window /= 2
	}
	if err := measureLoop(o, cfg, r.db.RDBMS(), window, r.classes, query); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return nil, nil
	}

	tr := newTracer()
	execLat := make([][]time.Duration, r.classes)
	ts := closedLoop(o, window, r.classes, func(c int, _ int64) (int, error) {
		op := tr.newOp()
		root := tr.open("bench.read", op, 0)
		rows, d, err := chainRead(r.db, r.sql(c), tr, op, root.ID)
		tr.close(root)
		if err != nil {
			return 0, err
		}
		execLat[c] = append(execLat[c], d[3])
		return len(rows), r.check(c, rows)
	})
	chainLayers(o.layers, tr.spans)
	o.layers["bench.traced_qps"] = float64(ts.ops) / ts.elapsed.Seconds()
	o.spans = append(o.spans, tr.spans...)
	med := make([]float64, r.classes)
	for c, l := range execLat {
		med[c] = percentileMs(l, 0.5)
	}
	return med, nil
}

// measureLoop runs the closed loop for the window and reports the read
// metrics, with the database's and the runtime's counters over the loop.
func measureLoop(o *outcome, cfg config, rdb *rdbms.DB, window time.Duration, classes int,
	op func(class int, seq int64) (int, error)) error {
	db0, rt0 := readDB(rdb), readRuntime()
	s := closedLoop(o, window, classes, op)
	db1, rt1 := readDB(rdb), readRuntime()
	all := s.all()
	if err := tailSamples(len(all), 0.99); err != nil && cfg.scale == 1 {
		return fmt.Errorf("read p99: %w", err)
	}
	o.e2e["qps"] = float64(s.ops) / s.elapsed.Seconds()
	o.e2e["p50_ms"] = percentileMs(all, 0.5)
	o.e2e["p99_ms"] = percentileMs(all, 0.99)
	o.e2e["suite_ms"] = s.suiteMs()
	o.samples["reads"] = s.ops
	o.samples["class_p50_ms"] = s.classP50()
	readLayers(o.layers, db0, db1, s.ops)
	runtimeLayers(o.layers, rt0, rt1, s.ops)
	o.layers["exec.rows_out_per_op"] = float64(s.rows) / float64(s.ops)
	return nil
}

package main

import (
	"fmt"
	"time"

	"github.com/sinewdata/sinew/internal/core"
)

// setup is a database built from empty and ready to measure.
type setup struct {
	db *core.DB
	ld *loader
	// lat holds each load batch's latency, bg the background pass.
	lat []time.Duration
	bg  pass
}

// setUp creates coll, loads the NDJSON batches, marks keys materialized and
// runs one background pass (materializer, then ANALYZE).
func setUp(coll string, keys []string, batches [][]byte, tr *tracer) (*setup, error) {
	s := &setup{db: core.Open(core.DefaultConfig())}
	if err := s.db.CreateCollection(coll); err != nil {
		return nil, err
	}
	s.ld = &loader{db: s.db, coll: coll, tr: tr}
	s.lat = make([]time.Duration, 0, len(batches))
	for _, b := range batches {
		t0 := time.Now()
		if err := s.ld.load(b); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		s.lat = append(s.lat, time.Since(t0))
	}
	for _, k := range keys {
		if err := s.db.SetMaterialized(coll, k, true); err != nil {
			return nil, err
		}
	}
	var err error
	s.bg, err = backgroundPass(s.db, coll, tr)
	return s, err
}

// setUpRepeated sets the database up repeats times from empty, reports the
// median time as setup_s and the last pass's costs, and returns the last
// set-up with the batch latencies of all of them.
func setUpRepeated(o *outcome, repeats int, coll string, keys []string, batches [][]byte, tr *tracer) (*setup, []time.Duration, error) {
	var (
		s     *setup
		times []float64
		lat   []time.Duration
	)
	for i := 0; i < repeats; i++ {
		s = nil
		gcSettle()
		t0 := time.Now()
		var err error
		if s, err = setUp(coll, keys, batches, tr); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		lat = append(lat, s.lat...)
	}
	o.samples["setup_s"] = append([]float64(nil), times...)
	o.e2e["setup_s"] = median(times)
	o.layers["core.materialize_s"] = s.bg.materialize.Seconds()
	o.layers["storage.freeze_s"] = s.bg.analyze.Seconds()
	o.layers["core.values_moved_per_doc"] = float64(s.bg.moved) / float64(s.ld.docs)
	o.layers["storage.frozen_pages"] = float64(s.db.RDBMS().FrozenPages())
	return s, lat, nil
}

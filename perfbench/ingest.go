package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// The tweet-ingest workload: one closed-loop client loads tweets in
// 500-document NDJSON batches; after every ingestPassEvery documents a
// background pass (materializer, then ANALYZE) runs inline. Passes are
// triggered by document count, not by a timer, so every count repeats
// exactly for a seed.
const (
	ingestPreload   = 10000
	ingestMeasured  = 40000
	ingestPassEvery = 20000
	// ingestMinCycles is the fewest set-up + ingest cycles a run makes:
	// enough set-ups for a median and batches for a p95.
	ingestMinCycles = 3
)

func runTweetIngest(cfg config) (*outcome, error) {
	o := newOutcome()
	pre := cfg.scaled(ingestPreload, batchSize)
	meas := cfg.scaled(ingestMeasured, batchSize)
	every := cfg.scaled(ingestPassEvery, batchSize)
	o.scale["preload"], o.scale["measured"], o.scale["pass_every"] = pre, meas, every
	docs, facts := generateTweets(pre+meas, cfg.seed)
	batches, inputBytes := ndjsonBatches(docs, batchSize)
	docs = nil

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		db        *core.DB
		ld        *loader
		setups    []float64
		batchLat  []time.Duration
		passes    []pass
		passDocs  []int64
		ingestDur time.Duration
		loaded    int64
		cycles    int
		// ingestLayers holds the runtime and write-side storage counters
		// of the first cycle's ingest, which the reads must not overwrite.
		ingestLayers = map[string]float64{}
	)
	// Each cycle sets the database up from empty, then ingests the
	// measured documents. Cycles repeat until ingest has filled half the
	// window; reads over the result then run for the other half.
	for cycles < ingestMinCycles || ingestDur < cfg.window()/2 {
		cycles++
		db, ld = nil, nil
		gcSettle()
		t0 := time.Now()
		su, err := setUp(tweetTable, tweetMaterialized, batches[:pre/batchSize], tr)
		if err != nil {
			return nil, err
		}
		db, ld = su.db, su.ld
		setups = append(setups, time.Since(t0).Seconds())
		gcSettle()

		if tr != nil {
			tr.spans = tr.spans[:0]
			ld.docs, ld.newAttrs = 0, 0
		}
		db0, rt0 := readDB(db.RDBMS()), readRuntime()
		t1 := time.Now()
		since := 0
		for _, b := range batches[pre/batchSize:] {
			st := time.Now()
			if err := ld.load(b); err != nil {
				return nil, fmt.Errorf("ingest: %w", err)
			}
			batchLat = append(batchLat, time.Since(st))
			if since += batchSize; since == every {
				p, err := backgroundPass(db, tweetTable, tr)
				if err != nil {
					return nil, err
				}
				passes = append(passes, p)
				passDocs = append(passDocs, int64(since))
				since = 0
			}
		}
		d := time.Since(t1)
		ingestDur += d
		loaded += int64(meas)
		if cycles == 1 {
			runtimeLayers(ingestLayers, rt0, readRuntime(), int64(meas))
			db1 := readDB(db.RDBMS())
			ingestLayers["storage.pages_cow"] = float64(db1.cow - db0.cow)
			ingestLayers["storage.seg_unfrozen"] = float64(db1.segUnfrozen - db0.segUnfrozen)
			ingestLayers["rdbms.epoch_bumps"] = float64(db1.epoch - db0.epoch)
			if tr != nil {
				loadLayers(o.layers, tr.spans, ld)
				o.layers["bench.traced_ingest_docs_per_s"] = float64(meas) / d.Seconds()
			}
		}
		if err := checkIngest(o, db, facts, pre+meas); err != nil {
			return nil, err
		}
	}
	o.samples["setup_s"] = append([]float64(nil), setups...)
	o.samples["cycles"] = cycles
	o.e2e["setup_s"] = median(setups)
	if err := tailSamples(len(batchLat), 0.95); err != nil && cfg.scale == 1 {
		return nil, fmt.Errorf("ingest p95: %w", err)
	}
	o.e2e["ingest_docs_per_s"] = float64(loaded) / ingestDur.Seconds()
	o.e2e["ingest_p50_ms"] = percentileMs(batchLat, 0.5)
	o.e2e["ingest_p95_ms"] = percentileMs(batchLat, 0.95)

	// Pass costs and counts from the first cycle; later cycles repeat them.
	perCycle := len(passes) / cycles
	var matS, anaS float64
	var moved, docsAdded int64
	passMs := make([]float64, 0, len(passes))
	for i, p := range passes {
		passMs = append(passMs, ms(p.materialize+p.analyze))
		if i < perCycle {
			matS += p.materialize.Seconds()
			anaS += p.analyze.Seconds()
			moved += p.moved
			docsAdded += passDocs[i]
		}
	}
	o.samples["pass_ms"] = passMs
	o.layers["core.materialize_s"] = matS
	o.layers["storage.freeze_s"] = anaS
	if docsAdded > 0 {
		o.layers["core.values_moved_per_doc"] = float64(moved) / float64(docsAdded)
	}
	o.layers["storage.frozen_pages"] = float64(db.RDBMS().FrozenPages())
	if tr != nil {
		o.spans = tr.spans
	}
	if err := readAfterIngest(o, cfg, db, facts, pre+meas); err != nil {
		return nil, err
	}
	for k, v := range ingestLayers {
		o.layers[k] = v
	}
	batches = nil
	footprint(o, db.DatabaseSizeBytes(), inputBytes)
	runtime.KeepAlive(db)
	return o, nil
}

// checkIngest compares COUNT(*) and SUM(retweet_count) after a cycle with
// the generator's.
func checkIngest(o *outcome, db *core.DB, facts *tweetFacts, n int) error {
	o.attempted++
	res, err := db.Query(fmt.Sprintf(`SELECT COUNT(*), SUM(retweet_count) FROM %s`, tweetTable))
	if err != nil {
		return err
	}
	var want int64
	for _, r := range facts.retweets[:n] {
		want += r
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != int64(n) || res.Rows[0][1].I != want {
		o.fail("ingest: COUNT, SUM = %v, want %d, %d", res.Rows, n, want)
	}
	return nil
}

// readAfterIngest measures the tweet read mix over the table the last
// cycle left: the read cost of the layout the write path built.
func readAfterIngest(o *outcome, cfg config, db *core.DB, facts *tweetFacts, n int) error {
	rng := pointKeys(cfg.seed)
	var k int64
	_, err := inProcessReads{
		db:      db,
		classes: len(tweetClasses),
		sql: func(c int) string {
			if c == 3 {
				k = rng.Int63n(int64(n))
			}
			return tweetSQL(c, k)
		},
		check: func(c int, rows []storage.Row) error {
			return facts.check(c, k, n, n, cells(rows))
		},
	}.measure(o, cfg, cfg.window()/2)
	return err
}

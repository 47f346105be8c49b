package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/service"
)

// The sinewd-mixed workload: a sinewd server on loopback over preloaded
// tweets. One closed-loop HTTP reader cycles over the tweet read mix while
// one open-loop writer loads writerBatch tweets every writerEvery.
const (
	mixedPreload = 20000
	writerBatch  = 100
	writerEvery  = 100 * time.Millisecond
)

// writerStats is what the open-loop writer measured.
type writerStats struct {
	// lat is each batch's latency from its due time, late how long after
	// its due time it started, busy the total time spent loading.
	lat, late []time.Duration
	busy      time.Duration
	ld        *loader
	err       error
}

// httpReader posts statements to the server's /query endpoint.
type httpReader struct {
	client *http.Client
	url    string
}

// query returns the rows of one statement and the response size.
func (h httpReader) query(sql string) ([][]any, int, error) {
	resp, err := h.client.Post(h.url, "text/plain", bytes.NewBufferString(sql))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(body), fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, len(body), err
	}
	return out.Rows, len(body), nil
}

func runSinewdMixed(cfg config) (*outcome, error) {
	o := newOutcome()
	pre := cfg.scaled(mixedPreload, batchSize)
	nb := max(1, int(cfg.window()/writerEvery))
	o.scale["preload"], o.scale["writer_batches"], o.scale["writer_batch"] = pre, nb, writerBatch
	docs, facts := generateTweets(pre+nb*writerBatch, cfg.seed)
	preBatches, preBytes := ndjsonBatches(docs[:pre], batchSize)
	writes, writeBytes := ndjsonBatches(docs[pre:], writerBatch)
	docs = nil

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	su, _, err := setUpRepeated(o, repeats, tweetTable, tweetMaterialized, preBatches, nil)
	if err != nil {
		return nil, err
	}
	preBatches = nil
	db := su.db

	srv := service.New(db)
	addrs := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0", func(a net.Addr) { addrs <- a }) }()
	var addr net.Addr
	select {
	case addr = <-addrs:
	case err := <-served:
		return nil, fmt.Errorf("serve: %w", err)
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	reader := httpReader{client: &http.Client{Transport: transport}, url: "http://" + addr.String() + "/query"}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a drain timeout leaves nothing to clean up
		<-served
	}()

	// loaded counts tweets whose load has returned, inflight those whose
	// load has started: a read sees at least the first and at most the
	// second.
	var loaded, inflight atomic.Int64
	loaded.Store(int64(pre))
	inflight.Store(int64(pre))
	rng := pointKeys(cfg.seed)
	var k int64
	var bodyBytes, bodyRows int64
	httpRead := func(c int, _ int64) (int, error) {
		lo := int(loaded.Load())
		if c == 3 {
			k = rng.Int63n(int64(lo))
		}
		rows, n, err := reader.query(tweetSQL(c, k))
		hi := int(inflight.Load())
		if err != nil {
			return 0, err
		}
		bodyBytes += int64(n)
		bodyRows += int64(len(rows))
		return len(rows), facts.check(c, k, lo, hi, rows)
	}
	closedLoop(o, 0, len(tweetClasses), httpRead)
	gcSettle()

	var wtr *tracer
	if cfg.trace {
		wtr = newTracer()
	}
	wdone := make(chan writerStats, 1)
	start := time.Now()
	go func() {
		ws := writerStats{ld: &loader{db: db, coll: tweetTable, tr: wtr}}
		for j, b := range writes {
			due := start.Add(time.Duration(j) * writerEvery)
			time.Sleep(time.Until(due))
			st := time.Now()
			inflight.Store(int64(pre + (j+1)*writerBatch))
			if ws.err = ws.ld.load(b); ws.err != nil {
				break
			}
			end := time.Now()
			loaded.Store(int64(pre + (j+1)*writerBatch))
			ws.lat = append(ws.lat, end.Sub(due))
			ws.late = append(ws.late, st.Sub(due))
			ws.busy += end.Sub(st)
		}
		wdone <- ws
	}()

	window := cfg.window()
	if cfg.trace {
		window /= 2
	}
	err = measureLoop(o, cfg, db.RDBMS(), window, len(tweetClasses), httpRead)
	var ts loopStats
	var rtr *tracer
	var render []float64
	if cfg.trace && err == nil {
		rtr = newTracer()
		ts = closedLoop(o, window, len(tweetClasses), func(c int, _ int64) (int, error) {
			n, r, err := tracedMixedRead(db, reader, rtr, facts, c, rng, &loaded, &inflight)
			render = append(render, r)
			return n, err
		})
	}
	ws := <-wdone
	switch {
	case err != nil:
		return nil, err
	case ws.err != nil:
		return nil, fmt.Errorf("writer: %w", ws.err)
	}
	if err := tailSamples(len(ws.lat), 0.95); err != nil && cfg.scale == 1 {
		return nil, fmt.Errorf("write p95: %w", err)
	}
	o.e2e["ingest_docs_per_s"] = float64(ws.ld.docs) / ws.busy.Seconds()
	o.e2e["ingest_p50_ms"] = percentileMs(ws.lat, 0.5)
	o.e2e["ingest_p95_ms"] = percentileMs(ws.lat, 0.95)
	o.samples["writer_batches"] = len(ws.lat)
	o.layers["bench.gen_late_ms"] = percentileMs(ws.late, 1)
	if bodyRows > 0 {
		o.layers["service.response_bytes_per_row"] = float64(bodyBytes) / float64(bodyRows)
	}
	if cfg.trace {
		chainLayers(o.layers, rtr.spans)
		loadLayers(o.layers, wtr.spans, ws.ld)
		o.layers["service.render_ms"] = median(render)
		o.layers["bench.traced_qps"] = float64(ts.ops) / ts.elapsed.Seconds()
		o.layers["bench.traced_ingest_docs_per_s"] = float64(ws.ld.docs) / ws.busy.Seconds()
		o.spans = append(rtr.spans, wtr.spans...)
	}
	writes = nil
	footprint(o, db.DatabaseSizeBytes(), preBytes+writeBytes)
	runtime.KeepAlive(db)
	return o, nil
}

// tracedMixedRead runs one statement through the uncached in-process chain
// and then over HTTP, each under spans, checks both results, and returns
// the rows and the service's share of the HTTP round trip: the round trip
// minus the in-process work the server did for it (execution alone when
// the server's plan cache hit, the whole chain when it missed).
func tracedMixedRead(db *core.DB, reader httpReader, tr *tracer, facts *tweetFacts, c int,
	rng *rand.Rand, loaded, inflight *atomic.Int64) (int, float64, error) {
	lo := int(loaded.Load())
	var k int64
	if c == 3 {
		k = rng.Int63n(int64(lo))
	}
	sql := tweetSQL(c, k)
	op := tr.newOp()
	root := tr.open("bench.read", op, 0)
	defer tr.close(root)
	rows, d, err := chainRead(db, sql, tr, op, root.ID)
	if err != nil {
		return 0, 0, err
	}
	hits := db.RDBMS().PlanCacheStats().Hits
	hs := tr.open("service.POST /query", op, root.ID)
	httpRows, _, err := reader.query(sql)
	rt := tr.close(hs)
	hi := int(inflight.Load())
	if err != nil {
		return 0, 0, err
	}
	inProcess := d[0] + d[1] + d[2] + d[3]
	if db.RDBMS().PlanCacheStats().Hits > hits {
		inProcess = d[3]
	}
	if err := facts.check(c, k, lo, hi, cells(rows)); err != nil {
		return 0, 0, fmt.Errorf("in-process: %w", err)
	}
	return len(httpRows), ms(rt - inProcess), facts.check(c, k, lo, hi, httpRows)
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/sinewdata/sinew/internal/rdbms"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of Sinew sees. Every workload reports every one;
// README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"suite_ms", "ms", "lower"},
	{"ingest_docs_per_s", "docs/s", "higher"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p95_ms", "ms", "lower"},
	{"bytes_per_input_byte", "B/B", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer splits the work by module. A layer a workload never calls
// reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sqlparse.parse_us", "us", "lower"},
		{"core.rewrite_us", "us", "lower"},
		{"plan.plan_us", "us", "lower"},
		{"rdbms.plancache_hit_ratio", "ratio", "higher"},
		{"rdbms.plancache_lookups", "count", "lower"},
		{"rdbms.epoch_bumps", "count", "lower"},
		{"exec.execute_ms", "ms", "lower"},
	}
	for _, q := range nobenchQueryIDs {
		defs = append(defs, metricDef{"exec." + q + "_ms", "ms", "lower"})
	}
	return append(defs, []metricDef{
		{"exec.rows_out_per_op", "rows", "lower"},
		{"exec.parallel_workers_per_op", "count", "lower"},
		{"storage.bytes_read_per_op", "B", "lower"},
		{"storage.pages_skipped_ratio", "ratio", "higher"},
		{"storage.seg_scanned_per_op", "count", "lower"},
		{"storage.seg_unfrozen", "count", "lower"},
		{"storage.sel_batches_per_op", "count", "lower"},
		{"storage.pages_cow", "count", "lower"},
		{"jsonx.parse_us_per_doc", "us", "lower"},
		{"core.load_us_per_doc", "us", "lower"},
		{"core.new_attrs", "count", "lower"},
		{"core.materialize_s", "s", "lower"},
		{"core.values_moved_per_doc", "count", "lower"},
		{"storage.freeze_s", "s", "lower"},
		{"storage.frozen_pages", "count", "higher"},
		{"storage.db_bytes", "B", "lower"},
		{"storage.heap_bytes_per_db_byte", "B/B", "lower"},
		{"service.render_ms", "ms", "lower"},
		{"service.response_bytes_per_row", "B", "lower"},
		{"runtime.gc_cpu_fraction", "ratio", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"bench.gen_late_ms", "ms", "lower"},
		{"bench.read_ops", "count", "higher"},
		{"bench.docs_loaded", "count", "higher"},
		{"bench.traced_qps", "1/s", "higher"},
		{"bench.traced_ingest_docs_per_s", "docs/s", "higher"},
	}...)
}()

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentileMs returns the p-th percentile (0 < p <= 1, nearest rank) of
// the durations in milliseconds. It sorts ds in place.
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(p*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return ms(ds[k])
}

// median returns the median of xs (the mean of the middle two for an even
// count). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// tailSamples checks the rule that a reported percentile has at least ten
// samples beyond it.
func tailSamples(n int, p float64) error {
	if beyond := float64(n) * (1 - p); beyond < 10 {
		return fmt.Errorf("only %d samples: p%g needs %d", n, p*100, int(math.Ceil(10/(1-p))))
	}
	return nil
}

// heapMiB is the live heap after a collection, in MiB.
func heapMiB() float64 {
	gcSettle()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	gcCPU, totalCPU float64
	cycles, allocs  uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		cycles:   s[2].Value.Uint64(),
		allocs:   s[3].Value.Uint64(),
	}
}

// runtimeLayers reports the runtime's share of a phase that ran ops
// operations between readings a and b.
func runtimeLayers(l map[string]float64, a, b rtSample, ops int64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		l["runtime.gc_cpu_fraction"] = (b.gcCPU - a.gcCPU) / cpu
	}
	l["runtime.gc_cycles"] = float64(b.cycles - a.cycles)
	if ops > 0 {
		l["runtime.alloc_bytes_per_op"] = float64(b.allocs-a.allocs) / float64(ops)
	}
}

// dbSample is a reading of the database's process-wide counters.
type dbSample struct {
	read, skipped, workers  int64
	segScanned, segUnfrozen int64
	zoneSkipped, selBatches int64
	cow                     int64
	hits, misses, epoch     uint64
}

func readDB(rdb *rdbms.DB) dbSample {
	p := rdb.Pager()
	var s dbSample
	s.read, _ = p.Stats()
	s.skipped, s.workers = p.ExecStats()
	s.segScanned, s.segUnfrozen = p.SegStats()
	s.zoneSkipped, s.selBatches, _ = p.SelStats()
	_, _, s.cow = p.SnapshotStats()
	pc := rdb.PlanCacheStats()
	s.hits, s.misses, s.epoch = pc.Hits, pc.Misses, rdb.CatalogEpoch()
	return s
}

// readLayers reports the executor, storage and plan-cache counters of a
// phase that ran ops reads between readings a and b. The counters are
// process-wide, so on a workload with a concurrent writer they include
// the writer's share.
func readLayers(l map[string]float64, a, b dbSample, ops int64) {
	if ops == 0 {
		return
	}
	per := func(d int64) float64 { return float64(d) / float64(ops) }
	lookups := (b.hits - a.hits) + (b.misses - a.misses)
	l["rdbms.plancache_lookups"] = float64(lookups)
	if lookups > 0 {
		l["rdbms.plancache_hit_ratio"] = float64(b.hits-a.hits) / float64(lookups)
	}
	l["rdbms.epoch_bumps"] = float64(b.epoch - a.epoch)
	l["exec.parallel_workers_per_op"] = per(b.workers - a.workers)
	l["storage.bytes_read_per_op"] = per(b.read - a.read)
	skipped := (b.skipped - a.skipped) + (b.zoneSkipped - a.zoneSkipped)
	if considered := skipped + (b.segScanned - a.segScanned); considered > 0 {
		l["storage.pages_skipped_ratio"] = float64(skipped) / float64(considered)
	}
	l["storage.seg_scanned_per_op"] = per(b.segScanned - a.segScanned)
	l["storage.seg_unfrozen"] = float64(b.segUnfrozen - a.segUnfrozen)
	l["storage.sel_batches_per_op"] = per(b.selBatches - a.selBatches)
	l["storage.pages_cow"] = float64(b.cow - a.cow)
	l["bench.read_ops"] = float64(ops)
}

// footprint reports the stored size against the input and the live heap.
func footprint(o *outcome, dbBytes, inputBytes int64) {
	heap := heapMiB()
	o.e2e["bytes_per_input_byte"] = float64(dbBytes) / float64(inputBytes)
	o.e2e["heap_mb"] = heap
	o.layers["storage.db_bytes"] = float64(dbBytes)
	o.layers["storage.heap_bytes_per_db_byte"] = heap * (1 << 20) / float64(dbBytes)
}

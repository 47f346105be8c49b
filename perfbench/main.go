// Command perfbench is the repository's benchmark. It generates seeded
// inputs, runs one workload against an in-process Sinew database (or a
// sinewd server on loopback), checks every result against an oracle built
// from the generated documents with plain Go loops, and prints the metrics
// as one JSON object on the last line of standard output:
//
//	perfbench --workload nobench-read --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run is uninstrumented and reports the end-to-end
// metrics. With --trace 1 it records spans around the benchmark's own calls
// into each module's public functions and reports the per-layer metrics.
// README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every document count; 1 is the benchmark, the
	// package test runs at a tiny fraction.
	scale float64
}

// scaled returns n documents at the run's scale, rounded to whole batches
// of unit so that batch boundaries (and with them every count) stay exact.
func (c config) scaled(n, unit int) int {
	k := int(float64(n)*c.scale) / unit * unit
	if k < unit {
		k = unit
	}
	return k
}

// window is the measured interval.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	// e2e holds the end-to-end metrics (untraced runs), layers the
	// per-layer metrics (traced runs); both keyed by metric name.
	e2e    map[string]float64
	layers map[string]float64
	// scale records the document counts the run used, samples the per-run
	// values behind each median, so later runs can read the spread.
	scale   map[string]int
	samples map[string]any
	spans   []span
}

func newOutcome() *outcome {
	return &outcome{
		e2e:     map[string]float64{},
		layers:  map[string]float64{},
		scale:   map[string]int{},
		samples: map[string]any{},
	}
}

// fail counts a failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"nobench-read": runNobenchRead,
	"tweet-ingest": runTweetIngest,
	"sinewd-mixed": runSinewdMixed,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "nobench-read, tweet-ingest or sinewd-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.scale = 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := report(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report writes the run record (metadata, per-run samples) to standard
// output and to .bench_build/, writes the spans of a traced run, and
// returns the result line, which must be the last line printed.
func report(cfg config, out *outcome) ([]byte, error) {
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		// A layer a workload never calls reports 0: it did no such work.
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	record := map[string]any{
		"meta":    runMeta(cfg, out.scale),
		"samples": out.samples,
		"result":  res,
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(rec))
	if st, err := os.Stat(buildDir); err == nil && st.IsDir() {
		if err := appendLine(filepath.Join(buildDir, "perfbench-runs.jsonl"), rec); err != nil {
			return nil, err
		}
		if cfg.trace {
			name := fmt.Sprintf("perfbench-trace-%s-seed%d.json", cfg.workload, cfg.seed)
			if err := writeSpans(filepath.Join(buildDir, name), out.spans); err != nil {
				return nil, err
			}
		}
	}
	return json.Marshal(res)
}

// buildDir is where run.sh builds the benchmark; run records and traces go
// there when it exists, and nowhere otherwise (the package test).
const buildDir = ".bench_build"

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gcSettle collects garbage twice so the next measurement starts from a
// settled heap (the second cycle frees what finalizers released).
func gcSettle() {
	runtime.GC()
	runtime.GC()
}

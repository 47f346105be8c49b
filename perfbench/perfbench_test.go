package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCountsRepeat runs every workload twice at a tiny scale with one seed
// and checks that the results are correct and that the counts later
// changes may cite as evidence repeat exactly.
func TestCountsRepeat(t *testing.T) {
	counts := []string{"core.values_moved_per_doc", "storage.frozen_pages", "storage.db_bytes"}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 7, seconds: 0.3, trace: true, scale: 0.025}
			var runs [2]*outcome
			for i := range runs {
				out, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed", i, out.failed, out.attempted)
				}
				runs[i] = out
			}
			want := counts
			if name == "nobench-read" {
				want = append(want, "storage.bytes_read_per_op")
			}
			for _, m := range want {
				a, b := runs[0].layers[m], runs[1].layers[m]
				if a == 0 || a != b {
					t.Errorf("%s: %v then %v, want the same nonzero count", m, a, b)
				}
			}
			for _, d := range endToEnd {
				if runs[0].e2e[d.name] <= 0 {
					t.Errorf("%s = %v, want a positive value", d.name, runs[0].e2e[d.name])
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %+v, want %+v", what, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("%d workloads, the program runs %d", len(spec.Workloads), len(names))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run by the program", w.Name)
		}
	}
}

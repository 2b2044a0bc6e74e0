package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Every workload at -quick sizes (1k-leaf trees, one cycle), both run
// kinds: the run must verify against the naive evaluator and report every
// metric of its kind. Run from this directory: go test ./...
func smoke(t *testing.T, workload string) {
	for _, trace := range []bool{false, true} {
		cfg := quickConfig(workload)
		cfg.trace = trace
		cfg.outDir = t.TempDir()
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", workload, trace, err)
		}
		if res.verr != nil || res.failed != 0 || res.attempted < 1 {
			t.Fatalf("%s trace=%v: attempted %d, failed %d, check: %v", workload, trace, res.attempted, res.failed, res.verr)
		}
		defs := endToEnd
		if trace {
			defs = []metricDef{{"tree.us_per_op", "us"}, {"bench.trace_overhead_ratio", "ratio"}}
		}
		for _, d := range defs {
			if v, ok := res.metrics[d.name]; !ok || (!trace && v <= 0) {
				t.Errorf("%s trace=%v: metric %s = %v", workload, trace, d.name, v)
			}
		}
		if trace {
			if st, err := os.Stat(cfg.tracePath()); err != nil || st.Size() == 0 {
				t.Errorf("%s: no spans written to %s: %v", workload, cfg.tracePath(), err)
			}
		}
	}
}

func TestSmokeInProcess(t *testing.T) {
	start := time.Now()
	for _, w := range []string{"struct-64k", "label-path-64k", "engine-pipe"} {
		smoke(t, w)
	}
	// About 4 s on the reference box; the ceiling leaves room for -race
	// and a slow host while still catching a smoke that stopped being one.
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("in-process smoke took %v", d)
	}
}

// The serve-wal smoke builds dyntcd, drives it over HTTP for a second,
// kills it and checks recovery.
func TestSmokeServeWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dyntcd")
	}
	smoke(t, "serve-wal")
}

// BENCHMARK.json and the program must name the same gated workloads and
// the same metrics.
func TestContractMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(gatedWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program gates %d", len(c.Workloads), len(gatedWorkloads))
	}
	for i, w := range c.Workloads {
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, gatedWorkloads[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

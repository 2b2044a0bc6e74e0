// Command benchmark is dyntc's one benchmark: four named workloads (two
// of them gated by BENCHMARK.json), the end-to-end metrics a user of the
// library or of dyntcd would see, and a per-layer cost ladder from the
// naive tree up to the HTTP server. See README.md in this directory, and
// BENCHMARK.json at the repository root for the contract it is run under:
//
//	go run -C benchmark . --workload struct-64k --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric vocabulary; BENCHMARK.json lists
// the same names and units (TestContractMatchesProgram holds the two together).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"req_p50_us", "us"},
	{"cpu_ms_per_kop", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"tree.us_per_op", "us"},
	{"rbsts.us_per_op", "us"},
	{"rbsts.rebuild_leaves_per_op", "count"},
	{"core.us_per_op", "us"},
	{"core.records_per_wave", "count"},
	{"core.struct_records_per_wave", "count"},
	{"core.resim_ratio", "ratio"},
	{"core.bound_ratio", "ratio"},
	{"core.set_us_per_op", "us"},
	{"core.value_us_per_op", "us"},
	{"pram.us_per_op", "us"},
	{"pram.steps_per_wave", "count"},
	{"pram.work_per_wave", "count"},
	{"pram.max_procs", "count"},
	{"pram.round_bound_ratio", "ratio"},
	{"sched.loops_per_wave", "count"},
	{"sched.tasks_per_wave", "count"},
	{"sched.steals_per_wave", "count"},
	{"sched.utilization", "ratio"},
	{"engine.us_per_op", "us"},
	{"engine.mean_flush", "count"},
	{"engine.mean_wave", "count"},
	{"engine.flush_p50_us", "us"},
	{"engine.flush_p99_us", "us"},
	{"engine.resim_ratio", "ratio"},
	{"engine.shed", "count"},
	{"engine.dropped", "count"},
	{"replog.us_per_op", "us"},
	{"replog.wal_bytes_per_op", "bytes"},
	{"replog.recover_waves_per_s", "1/s"},
	{"replog.recover_s", "s"},
	{"replog.snapshot_bytes_per_node", "bytes"},
	{"replog.snapshot_encode_ms", "ms"},
	{"replog.restore_ms", "ms"},
	{"query.us_per_query", "us"},
	{"dyntcd.us_per_op", "us"},
	{"dyntcd.http_us_per_req", "us"},
	{"dyntcd.rate_p99_us.r1", "us"},
	{"dyntcd.rate_p99_us.r2", "us"},
	{"dyntcd.rate_p99_us.r3", "us"},
	{"dyntcd.rate_p99_us.r4", "us"},
	{"dyntcd.max_rate_ok", "req/s"},
	{"loadgen.req_p90_us", "us"},
	{"loadgen.req_p99_us", "us"},
	{"loadgen.fail_ratio", "ratio"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.backlog_max", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// gatedWorkloads are the ones BENCHMARK.json names: the driver runs them
// and holds their end-to-end metrics to the bounds. workloadNames adds the
// two that run by hand only, because this host cannot repeat them within
// any bound the contract allows (README.md, "Gated and ungated").
var (
	gatedWorkloads = []string{"struct-64k", "serve-wal"}
	workloadNames  = []string{"struct-64k", "label-path-64k", "engine-pipe", "serve-wal"}
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool   // small trees, one cycle: the smoke tests
	nproc    int    // worker / sender parallelism: GOMAXPROCS
	outDir   string // build outputs, WAL directories, the trace file
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
func (c config) tracePath() string       { return filepath.Join(c.outDir, "trace.jsonl") }

// result is one run of one workload.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	verr      error             // the correctness check's verdict
	notes     []string          // context printed above the metrics
	exact     map[string]string // values that must repeat bit for bit for a seed
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload dispatches one run.
func runWorkload(cfg config) (*result, error) {
	initPool()
	var measure, traced func(config) (*result, error)
	switch cfg.workload {
	case "struct-64k":
		w := structWorkload(cfg.quick)
		measure, traced = w.measure, w.traced
	case "label-path-64k":
		w := labelWorkload(cfg.quick)
		measure, traced = w.measure, w.traced
	case "engine-pipe":
		measure, traced = pipeMeasure, pipeTraced
	case "serve-wal":
		measure, traced = serveMeasure, serveTraced
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.trace {
		return traced(cfg)
	}
	return measure(cfg)
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's kind by name and unit, then the
// final JSON line. A metric the workload has no reading for prints 0.
func report(cfg config, res *result) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	h, _ := json.Marshal(host())
	fmt.Printf("host %s\n", h)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	line := finalLine{Correct: res.verr == nil, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Printf("%-32s %16.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	for k, v := range res.exact {
		fmt.Printf("exact %s %s\n", k, v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	var cfg config
	var traceFlag, repeat int
	var reseed bool
	flag.StringVar(&cfg.workload, "workload", "", "one of: "+strings.Join(workloadNames, ", ")+" (with -repeat: empty runs the gated ones, "+strings.Join(gatedWorkloads, " and ")+")")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: the traced run and its per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "1k-leaf trees, one cycle (smoke test sizes)")
	flag.IntVar(&repeat, "repeat", 0, "run the set N times in child processes and judge each metric's spread against its bound")
	flag.BoolVar(&reseed, "reseed", false, "with -repeat: give repetition i the seed seed+i instead of the same seed")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.nproc = runtime.GOMAXPROCS(0)

	// `go run -C benchmark .` leaves the process in the benchmark's
	// directory; everything the run writes goes under out/ there.
	if _, err := os.Stat("go.mod"); err != nil {
		fail(fmt.Errorf("run from the benchmark directory (go run -C benchmark .): %w", err))
	}
	cfg.outDir = "out"

	if repeat > 0 {
		if err := runRepeat(cfg, repeat, reseed); err != nil {
			fail(err)
		}
		return
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fail(err)
	}
	if err := report(cfg, res); err != nil {
		fail(err)
	}
	if res.verr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: wrong answer:", res.verr)
		os.Exit(1)
	}
}

// fail exits non-zero without printing a result line.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

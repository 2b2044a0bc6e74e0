package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// -repeat N: run the set N times, each run in a fresh child process as
// the driver runs it, and judge every end-to-end metric the way the
// driver does — the distance between the quartiles of its N values as a
// share of their median, against the metric's bound in BENCHMARK.json.
// With the same seed throughout (no -reseed) the traced run is repeated
// too and its exact counters must come out identical.

// contract is the part of BENCHMARK.json -repeat reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadContract() (*contract, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// childRun is what one child process printed.
type childRun struct {
	line  finalLine
	exact map[string]string
}

func runChild(cfg config, seed uint64, trace bool) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"--workload", cfg.workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", t}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	run := &childRun{exact: map[string]string{}}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		if rest, ok := strings.CutPrefix(sc.Text(), "exact "); ok {
			k, v, _ := strings.Cut(rest, " ")
			run.exact[k] = v
		}
	}
	if err := json.Unmarshal(last, &run.line); err != nil {
		return nil, fmt.Errorf("child's last line is not the result object: %w", err)
	}
	if !run.line.Correct {
		return nil, fmt.Errorf("child reported a wrong answer")
	}
	return run, nil
}

func runRepeat(cfg config, n int, reseed bool) error {
	con, err := loadContract()
	if err != nil {
		return err
	}
	workloads := gatedWorkloads
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	bad := 0
	for _, w := range workloads {
		cfg.workload = w
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed
			if reseed {
				seed += uint64(i)
			}
			run, err := runChild(cfg, seed, false)
			if err != nil {
				return err
			}
			for name, m := range run.line.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("%s run %d seed %d: %d attempted, %d failed;", w, i+1, seed, run.line.Attempted, run.line.Failed)
			for _, m := range con.EndToEnd {
				fmt.Printf(" %s %.5g", m.Name, run.line.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
		fmt.Printf("%-16s %-16s %14s %8s %6s\n", w, "metric", "median", "spread", "bound")
		for _, m := range con.EndToEnd {
			vs := values[m.Name]
			spread := quartileSpread(vs)
			verdict := "ok"
			// setup_s is judged by the driver on its medians only.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Printf("%-16s %-16s %14.6g %8.4f %6.2f %s\n", w, m.Name, medianFloat(vs), spread, m.Bound, verdict)
		}
		if reseed {
			continue
		}
		var first map[string]string
		for i := 0; i < n; i++ {
			run, err := runChild(cfg, cfg.seed, true)
			if err != nil {
				return err
			}
			if first == nil {
				first = run.exact
				continue
			}
			for k, v := range first {
				if run.exact[k] != v {
					fmt.Printf("%-16s exact %s differs between runs:\n  %s\n  %s\n", w, k, v, run.exact[k])
					bad++
				}
			}
		}
		fmt.Printf("%-16s exact counters identical over %d traced runs: %v\n", w, n, first)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics outside their bounds or counters that differ", bad)
	}
	return nil
}

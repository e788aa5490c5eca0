package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// contract is BENCHMARK.json, as far as the benchmark reads it itself.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadContract reads BENCHMARK.json from the repository root, one level
// above the benchmark's directory.
func loadContract() (*contract, error) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runChild runs one untraced run of workload w in a process of its own
// and returns its result line.
func runChild(w string, seed int64, seconds int, short bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
	}
	return &res, nil
}

// runAA is the A/A check: two interleaved sets of n runs of every
// workload on the current tree, position i of both sets on seed+i. For
// every workload/metric it prints each set's median and quartiles, the
// spread inside a set (interquartile range over median), the gap between
// the two medians, and the median difference between the two runs of one
// seed. It fails when a gap exceeds the metric's bound, and when a spread
// does: the benchmark's acceptance procedure takes ten runs on ten seeds
// and holds that spread, too, to the bound (setup_s excepted), so a bound
// below the spread would make the benchmark reject itself.
func runAA(n int, cfg config, out io.Writer) int {
	c, err := loadContract()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	seconds := c.RunSeconds
	if cfg.short {
		seconds = 1
	}
	type key struct{ w, m string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range c.Workloads {
			for side := 0; side < 2; side++ {
				res, err := runChild(w.Name, cfg.seed+int64(i), seconds, cfg.short)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: a/a run failed: %v (result %+v)\n", err, res)
					return 1
				}
				for name, v := range res.Metrics {
					sets[side][key{w.Name, name}] = append(sets[side][key{w.Name, name}], v.Value)
				}
				fmt.Fprintf(out, "run             set=%c seed=%d %s ok\n", 'A'+side, cfg.seed+int64(i), w.Name)
			}
		}
	}
	fmt.Fprintf(out, "\n%-14s %-14s %11s %11s %11s %8s %11s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A.median", "A.q1", "A.q3", "A.spread", "B.median", "B.spread", "gap", "paired", "bound", "verdict")
	bad := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			aspread, bspread := (aq3-aq1)/amed, (bq3-bq1)/bmed
			gap := math.Abs(bmed-amed) / amed
			paired := make([]float64, len(a))
			for i := range a {
				paired[i] = math.Abs(b[i]-a[i]) / a[i]
			}
			verdict := "ok"
			if gap > m.Bound {
				verdict = "GAP"
			} else if m.Name != "setup_s" && (aspread > m.Bound || bspread > m.Bound) {
				verdict = "SPREAD"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(out, "%-14s %-14s %11.4f %11.4f %11.4f %7.2f%% %11.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, amed, aq1, aq3, 100*aspread, bmed, 100*bspread, 100*gap, 100*median(paired), 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d workload/metric pairs disagree with themselves beyond their bound\n", bad)
		return 1
	}
	fmt.Fprintf(out, "\nevery workload/metric agrees with itself within its bound (n=%d per set, %d s per run)\n", n, seconds)
	return 0
}

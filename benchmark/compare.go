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
	"time"
)

// setRuns is how many runs of each workload a recorded set holds, one per
// seed 1..setRuns.
const setRuns = 10

// runSet is a recorded set of runs: every workload run once per seed in
// its own process, with the spread of each end-to-end metric across
// those runs.
type runSet struct {
	Machine   string               `json:"machine"`
	Seconds   float64              `json:"seconds"`
	Workloads map[string]*setEntry `json:"workloads"`
}

type setEntry struct {
	Seeds     []uint64              `json:"seeds"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]*setMetric `json:"metrics"`
}

type setMetric struct {
	Unit string `json:"unit"`
	summary
	Values []float64 `json:"values"` // in seed order
}

// recordSets records two run sets of the same binary to pathA and pathB.
// Run i of a workload uses seed i in both sets, and the two runs of a seed
// go back to back, alternating which set runs first, so a drift in the
// machine's speed over minutes falls on both sets alike.
func recordSets(pathA, pathB string, names []string, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sets := [2]*runSet{}
	for i := range sets {
		sets[i] = &runSet{Machine: machine(), Seconds: seconds, Workloads: make(map[string]*setEntry)}
	}
	code := 0
	for _, name := range names {
		for seed := uint64(1); seed <= setRuns; seed++ {
			order := []int{0, 1}
			if seed%2 == 0 {
				order = []int{1, 0}
			}
			for _, side := range order {
				var out bytes.Buffer
				cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
				cmd.Stdout, cmd.Stderr = &out, stderr
				t0 := time.Now()
				runErr := cmd.Run()
				wall := time.Since(t0)
				res, err := lastResult(out.Bytes())
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: %v (run: %v)\n", name, seed, err, runErr)
					return 1
				}
				if !res.Correct {
					code = 1
				}
				sets[side].add(name, seed, res)
				fmt.Fprintf(stdout, "%-12s seed %2d %c:", name, seed, "AB"[side])
				for _, d := range endToEnd {
					fmt.Fprintf(stdout, " %s=%.4g", d.Name, res.Metrics[d.Name].Value)
				}
				fmt.Fprintf(stdout, " (%.1f s)\n", wall.Seconds())
			}
		}
	}
	for i, path := range []string{pathA, pathB} {
		for _, e := range sets[i].Workloads {
			for _, m := range e.Metrics {
				m.summary = summarize(m.Values)
			}
		}
		data, err := json.MarshalIndent(sets[i], "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// add appends one run's result to the workload's entry.
func (s *runSet) add(name string, seed uint64, res *jsonResult) {
	e := s.Workloads[name]
	if e == nil {
		e = &setEntry{Metrics: make(map[string]*setMetric)}
		s.Workloads[name] = e
	}
	e.Seeds = append(e.Seeds, seed)
	e.Attempted += res.Attempted
	e.Failed += res.Failed
	for _, d := range endToEnd {
		m := e.Metrics[d.Name]
		if m == nil {
			m = &setMetric{Unit: d.Unit}
			e.Metrics[d.Name] = m
		}
		m.Values = append(m.Values, res.Metrics[d.Name].Value)
	}
}

// lastResult decodes the JSON result line that ends a run's output.
func lastResult(out []byte) (*jsonResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func loadSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges B against A for one metric, pairing run i of A with run
// i of B. It is unresolved when either set's interquartile range is wider
// than the bound, unless every run of B reads better than every run of A;
// worse when B's median is worse than A's by more than the bound; better
// when B wins at least nine tenths of the pairs and the medians differ by
// more than A's interquartile range; within otherwise. It also returns
// the relative change of the median and the pairs B won.
func verdict(d metricDef, a, b *setMetric) (delta float64, wins, pairs int, v string) {
	s := 1.0 // multiplies values so that lower is better
	if d.Better == "higher" {
		s = -1
	}
	delta = ratio(b.Median-a.Median, a.Median)
	pairs = min(len(a.Values), len(b.Values))
	for i := 0; i < pairs; i++ {
		if s*b.Values[i] < s*a.Values[i] {
			wins++
		}
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, x := range b.Values {
		worstB = math.Max(worstB, s*x)
	}
	for _, x := range a.Values {
		bestA = math.Min(bestA, s*x)
	}
	switch {
	case math.Max(a.spread(), b.spread()) > d.Bound && worstB >= bestA:
		v = "unresolved"
	case s*delta > d.Bound:
		v = "worse"
	case pairs > 0 && 10*wins >= 9*pairs && math.Abs(b.Median-a.Median) > a.Q3-a.Q1:
		v = "better"
	default:
		v = "within"
	}
	return delta, wins, pairs, v
}

// compareSets prints, for every workload and end-to-end metric, both
// sets' medians and quartiles, the relative change, the pairs B won and
// the verdict. It fails when any metric is worse or any run failed its
// correctness gate.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadSet(pathA)
	if err == nil {
		var b *runSet
		if b, err = loadSet(pathB); err == nil {
			return printComparison(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

func printComparison(a, b *runSet, w io.Writer) int {
	fmt.Fprintf(w, "A: %s\nB: %s\n", a.Machine, b.Machine)
	fmt.Fprintf(w, "%-12s %-13s %-4s %11s %23s %11s %23s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "delta", "B wins", "bound", "verdict")
	code := 0
	for _, name := range workloadNames {
		ea, eb := a.Workloads[name], b.Workloads[name]
		if ea == nil || eb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ea.Metrics[d.Name], eb.Metrics[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			delta, wins, pairs, v := verdict(d, ma, mb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-13s %-4s %11.5g %11.5g..%-10.5g %11.5g %11.5g..%-10.5g %+7.2f%% %3d/%-2d %5.0f%%  %s\n",
				name, d.Name, d.Unit, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3, 100*delta, wins, pairs, 100*d.Bound, v)
		}
		fmt.Fprintf(w, "%-12s failed reps: A %d/%d, B %d/%d\n", name, ea.Failed, ea.Attempted, eb.Failed, eb.Attempted)
		if ea.Failed+eb.Failed > 0 {
			code = 1
		}
	}
	return code
}

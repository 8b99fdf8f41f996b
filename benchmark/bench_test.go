package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the program's
// own workload and metric tables.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %g, program default %d", bf.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, d)
		}
	}
	defs := perLayer()
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(defs))
	}
	for i, m := range bf.PerLayer {
		if m.Name != defs[i].Name || m.Unit != defs[i].Unit || m.Better != defs[i].Better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, defs[i])
		}
	}
}

// resultLine runs report and decodes the JSON line it ends with.
func resultLine(t *testing.T, o *outcome, traced bool) (jsonResult, bool) {
	t.Helper()
	var out bytes.Buffer
	ok := o.report(&out, traced, false)
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatalf("%v in:\n%s", err, out.String())
	}
	return *res, ok
}

// TestSmokeEveryWorkload runs each workload at toy scale, untraced and
// traced, and checks the result lines against BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := &bench{seed: 1, scale: toyScale()}
			plain, err := measure(name, b, 0, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := measure(name, b, 0, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest || plain.items != traced.items {
				t.Errorf("traced run digest %s (%g items), untraced %s (%g items)",
					traced.digest, traced.items, plain.digest, plain.items)
			}
			if plain.items <= 0 {
				t.Errorf("no work items counted")
			}

			res, ok := resultLine(t, plain, false)
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("untraced result %+v (problems %v)", res, plain.problems)
			}
			for _, m := range bf.EndToEnd {
				got, found := res.Metrics[m.Name]
				if !found || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}

			res, ok = resultLine(t, traced, true)
			if !ok || !res.Correct {
				t.Errorf("traced result %+v (problems %v)", res, traced.problems)
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(bf.PerLayer))
			}
			shares := 0.0
			for _, m := range bf.PerLayer {
				got, found := res.Metrics[m.Name]
				if !found || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
			}
			for _, n := range spanShares {
				shares += res.Metrics[n].Value
			}
			for _, id := range fullScale().catalog {
				shares += res.Metrics["core.exp_share."+id].Value
			}
			// Every span under bench.run maps to a share metric, so the
			// layer self times add up to the traced run.
			if math.Abs(shares-1) > 0.1 {
				t.Errorf("span shares sum to %g, want 1±0.1", shares)
			}
			for _, probe := range []string{"sim.schedule_fire_ns", "pki.verify_image_us", "cnc.seal_us",
				"bench.trace_overhead", "bench.machine_speed", "bench.wall_run_s"} {
				if res.Metrics[probe].Value <= 0 {
					t.Errorf("%s = %g, want > 0", probe, res.Metrics[probe].Value)
				}
			}
		})
	}
}

// TestCorruptDigestFailsGate feeds the gate a wrong expected digest.
func TestCorruptDigestFailsGate(t *testing.T) {
	b := &bench{seed: 1, scale: toyScale()}
	good, err := measure("trace_replay", b, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := expectation{Digest: strings.Repeat("0", 64), Items: good.items}
	o, err := measure("trace_replay", b, 0, false, &bad)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := resultLine(t, o, false)
	if ok || res.Correct || res.Failed != res.Attempted {
		t.Errorf("corrupted digest passed the gate: %+v", res)
	}
}

// TestSummarizeMatchesPython pins the quartiles to
// statistics.quantiles(data, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.in, s, c.q1, c.m, c.q3)
		}
	}
}

// TestVerdict covers the four -compare outcomes.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.1}
	// around returns ten runs spread evenly over m·(1±w), in seed order.
	around := func(m, w float64) *setMetric {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = m * (1 - w + 2*w*float64(i)/9)
		}
		return &setMetric{summary: summarize(xs), Values: xs}
	}
	reversed := around(1, 0.01)
	for i, j := 0, len(reversed.Values)-1; i < j; i, j = i+1, j-1 {
		reversed.Values[i], reversed.Values[j] = reversed.Values[j], reversed.Values[i]
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b *setMetric
		want string
	}{
		{"slower within bound", lower, around(1, 0.01), around(1.05, 0.01), "within"},
		{"same runs paired apart", lower, around(1, 0.01), reversed, "within"},
		{"slower beyond bound", lower, around(1, 0.01), around(1.2, 0.01), "worse"},
		{"faster beyond bound", lower, around(1, 0.01), around(0.8, 0.01), "better"},
		{"faster in every pair", lower, around(1, 0.01), around(0.97, 0.01), "better"},
		{"fewer per second", higher, around(1, 0.01), around(0.8, 0.01), "worse"},
		{"too noisy", lower, around(1, 0.01), around(1, 0.3), "unresolved"},
		{"noisy but every run faster", lower, around(1, 0.3), around(0.5, 0.01), "better"},
	} {
		if _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

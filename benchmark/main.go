// Command benchmark measures the cyber range end to end and layer by layer
// on four workloads, and checks that every rep's outputs are correct. It
// is its own module so that it builds from the repository's sources
// without being part of them; run it from the repository root through
// run.sh:
//
//	bash benchmark/run.sh --workload fleet_wipe --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the verdict and
// the metrics. See README.md for the workloads, metrics and modes.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/runstats"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

//go:embed golden.json
var goldenJSON []byte

// golden holds the committed full-scale outputs for one seed.
type golden struct {
	Seed      uint64                 `json:"seed"`
	Workloads map[string]expectation `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the timed reps of one workload run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	record := fs.Bool("record", false, "record two interleaved run sets to the files given as arguments: -record A.json B.json")
	compare := fs.Bool("compare", false, "compare two run sets given as arguments: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	names := workloadNames
	if *name != "all" {
		if _, err := newWorkload(*name); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		names = []string{*name}
	}
	switch {
	case (*compare || *record) && fs.NArg() != 2:
		fmt.Fprintln(stderr, "benchmark: -compare and -record take two run-set files")
		return 2
	case *compare:
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *record:
		return recordSets(fs.Arg(0), fs.Arg(1), names, *seconds, stdout, stderr)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}

	var gold golden
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		fmt.Fprintln(stderr, "benchmark: golden.json:", err)
		return 1
	}
	code := 0
	for _, n := range names {
		var want *expectation
		if e, ok := gold.Workloads[n]; ok && *seed == gold.Seed {
			want = &e
		}
		b := &bench{seed: *seed, scale: fullScale()}
		fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d | %s\n", n, *seed, *seconds, *trace, machine())
		o, err := measure(n, b, *seconds, *trace == 1, want)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		if o.tr != nil {
			path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", n, *seed))
			if err := o.tr.write(path); err != nil {
				fmt.Fprintln(stderr, "benchmark: writing spans:", err)
				return 1
			}
			fmt.Fprintf(stdout, "# spans: %s\n", path)
		}
		if !o.report(stdout, *trace == 1, want != nil) {
			code = 1
		}
	}
	return code
}

// machine is the tuple every run records.
func machine() string {
	return fmt.Sprintf("%s %s/%s nproc=%d GOMAXPROCS=%d partition_workers=%d catalog_parallel=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		partitionWorkers, catalogWorkers)
}

// outcome is everything one workload invocation measured.
type outcome struct {
	attempted, failed int
	problems          []string
	digest            string
	items             float64
	samples           map[string][]float64 // end-to-end, untraced reps only
	wallRuns, speeds  []float64            // untraced reps' run wall seconds; machineSpeed samples
	layer             map[string]float64   // per-layer, traced runs only
	tr                *tracer
}

// measure runs one workload: set-up, one untimed warm-up rep, then timed
// reps until seconds have passed. A traced run alternates traced and
// untraced reps, so the tracing overhead is measured in the same process.
// Every untraced rep is bracketed by machineSpeed samples, one before and
// one after, and its timings are scaled by their mean: a sample taken only
// before can land in a burst of other load the rep does not see, and one
// speed for the whole run misses the drift between its reps. Back-to-back
// untraced reps share the sample between them.
func measure(name string, b *bench, seconds float64, traced bool, want *expectation) (*outcome, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	o := &outcome{samples: make(map[string][]float64)}
	if err := w.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	warm := &rep{}
	if _, err := doRep(w, b, warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Without a committed expectation the warm-up sets the digest every
	// later rep must reproduce.
	ref := expectation{Digest: warm.digest, Items: warm.items}
	if want != nil {
		ref = *want
	}
	o.judge(warm, ref)

	if traced {
		o.tr = newTracer(name)
	}
	var tracedRuns, simWalls, repWalls []float64
	layers := make(map[string][]float64)
	// last is the sample that ended the previous rep, or 0 after a traced
	// rep; it also opens the next rep, which starts right after it.
	var last float64
	start := time.Now()
	for i := 1; ; i++ {
		repStart := time.Now()
		r := &rep{}
		var coll *runstats.Collector
		traceThis := traced && i%2 == 1
		if traceThis {
			o.tr.rep = i
			r.tr = o.tr
			coll = runstats.Enable()
			last = 0
		} else if last == 0 {
			last = machineSpeed()
			o.speeds = append(o.speeds, last)
		}
		m, err := doRep(w, b, r)
		if traceThis {
			runstats.Disable()
		}
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		o.judge(r, ref)
		if traceThis {
			tracedRuns = append(tracedRuns, r.run.Seconds())
			simWalls = append(simWalls, r.simWall.Seconds())
			for k, v := range tracedValues(r, coll, m.gcs) {
				layers[k] = append(layers[k], v)
			}
		} else {
			after := machineSpeed()
			o.speeds = append(o.speeds, after)
			o.wallRuns = append(o.wallRuns, r.run.Seconds())
			// Timings read as seconds at the reference box's quiet speed.
			speed := (last + after) / 2
			last = after
			o.add("setup_s", r.setup.Seconds()*speed)
			o.add("run_s", r.run.Seconds()*speed)
			o.add("events_per_s", ratio(r.items, r.run.Seconds()*speed))
			o.add("alloc_mb", float64(m.alloc)/1e6)
			o.add("live_heap_mb", float64(m.live)/1e6)
		}
		// Stop before a rep that would end past the time budget, once
		// there is at least one rep of each kind.
		repWalls = append(repWalls, time.Since(repStart).Seconds())
		if time.Since(start).Seconds()+median(repWalls) > seconds && len(o.wallRuns) > 0 && (!traced || len(tracedRuns) > 0) {
			break
		}
	}
	if !traced {
		return o, nil
	}

	o.layer = make(map[string]float64)
	for _, d := range perLayer() {
		o.layer[d.Name] = median(layers[d.Name])
	}
	probes, err := runProbes(b.seed, int(o.layer["sim.max_queue_depth"]))
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		o.layer[k] = v
	}
	run := median(tracedRuns)
	o.layer["bench.trace_overhead"] = ratio(run, median(o.wallRuns))
	o.layer["bench.wall_run_s"] = median(o.wallRuns)
	o.layer["bench.machine_speed"] = median(o.speeds)
	o.layer["pki.verify_share"] = ratio(o.layer["host.driver_loads"]*probes["pki.verify_image_us"]/1e6, median(simWalls))
	o.layer["cnc.seal_share"] = ratio(o.layer["cnc.entries"]*(probes["cnc.seal_us"]+probes["cnc.open_us"])/1e6, run)
	return o, nil
}

func (o *outcome) add(metric string, v float64) { o.samples[metric] = append(o.samples[metric], v) }

// judge counts a rep and whether it passed the correctness gate: its own
// invariants, plus the digest and work count it must reproduce.
func (o *outcome) judge(r *rep, want expectation) {
	o.attempted++
	problems := r.problems
	if r.digest != want.Digest {
		problems = append(problems, fmt.Sprintf("output digest %s, want %s", r.digest, want.Digest))
	}
	if r.items != want.Items {
		problems = append(problems, fmt.Sprintf("work items %g, want %g", r.items, want.Items))
	}
	if len(problems) > 0 {
		o.failed++
		o.problems = append(o.problems, problems...)
	}
	o.digest, o.items = r.digest, r.items
}

// repMem is what the Go runtime saw during one rep.
type repMem struct {
	alloc uint64 // bytes allocated by set-up and run
	live  uint64 // heap in use after a GC, outputs still referenced
	gcs   uint32
}

// doRep runs one rep between garbage collections, then checks it.
func doRep(w workload, b *bench, r *rep) (repMem, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.rep(b, r); err != nil {
		return repMem{}, err
	}
	runtime.ReadMemStats(&after)
	m := repMem{alloc: after.TotalAlloc - before.TotalAlloc, gcs: after.NumGC - before.NumGC}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.live = after.HeapAlloc
	w.check(b, r)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// jsonMetric and jsonResult are the shape of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the metric table and, last, the JSON result line. It
// returns whether every rep was correct.
func (o *outcome) report(w io.Writer, traced, committed bool) bool {
	res := jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]jsonMetric)}
	if traced {
		defs := perLayer()
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
		fmt.Fprintf(w, "%-36s %-6s %16s\n", "per-layer metric", "unit", "value")
		for _, d := range defs {
			v := o.layer[d.Name]
			fmt.Fprintf(w, "%-36s %-6s %16.6g\n", d.Name, d.Unit, v)
			res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		}
	} else {
		fmt.Fprintf(w, "%-14s %-4s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, d := range endToEnd {
			s := summarize(o.samples[d.Name])
			fmt.Fprintf(w, "%-14s %-4s %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
			res.Metrics[d.Name] = jsonMetric{Value: s.Median, Unit: d.Unit}
		}
		fmt.Fprintf(w, "# run_s by rep: %.4g\n", o.samples["run_s"])
		fmt.Fprintf(w, "# run wall seconds by rep: %.4g\n", o.wallRuns)
		fmt.Fprintf(w, "# machine speed between the reps: %.4g\n", o.speeds)
	}
	source := "agrees across reps"
	if committed {
		source = "matches golden.json"
	}
	if res.Correct {
		fmt.Fprintf(w, "# correct: %d/%d reps, %g work items, digest %s %s\n", o.attempted, o.attempted, o.items, o.digest, source)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil { // only a NaN or Inf metric can cause this
		fmt.Fprintln(w, "# FAILED: encoding result:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

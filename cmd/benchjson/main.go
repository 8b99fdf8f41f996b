// Command benchjson turns `go test -bench -benchmem` output into the
// committed benchmark snapshot BENCH_C7.json and gates it.
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson -o BENCH_C7.json [-label after] [-require A,B] [-min-bytes-ratio NAME=R]
//	benchjson -check BENCH_C7.json [-require A,B] [-min-bytes-ratio NAME=R]
//
// The first form parses benchmark lines from stdin, replaces the -label
// snapshot of the JSON file (creating the file if needed, preserving the
// other snapshots — notably "baseline"), and then validates the result.
// The second form only validates an existing file; ci.sh runs it so a
// hand-edited or stale BENCH_C7.json fails fast.
//
// Gates:
//
//   - -require: comma-separated benchmark names (without the Benchmark
//     prefix or the -N GOMAXPROCS suffix) that every snapshot must carry;
//   - -min-bytes-ratio NAME=R: snapshot "baseline" must allocate at least
//     R times the bytes/op of snapshot "after" for NAME — the perf-
//     trajectory floor (C7 demands R=2);
//   - -require-metric NAME=METRIC[,NAME=METRIC...]: the "after" snapshot's
//     NAME benchmark must report METRIC with a positive value. Only "after"
//     is checked — the frozen baseline predates newer b.ReportMetric
//     columns (ns/host-event landed with the runstats layer).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is one labelled set of benchmark results.
type Snapshot struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the BENCH_C7.json schema: named snapshots, typically "baseline"
// (frozen at the commit before the perf work) and "after" (refreshed on
// purpose with -o; the ci.sh bench lane gates a temp copy).
type File struct {
	Note      string              `json:"note,omitempty"`
	Snapshots map[string]Snapshot `json:"snapshots"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out       = fs.String("o", "", "snapshot file to update from stdin bench output")
		label     = fs.String("label", "after", "snapshot name to (re)write in -o mode")
		check     = fs.String("check", "", "validate an existing snapshot file instead of reading stdin")
		require   = fs.String("require", "", "comma-separated benchmark names every snapshot must contain")
		minRatio  = fs.String("min-bytes-ratio", "", "NAME=R: baseline bytes/op must be >= R x after bytes/op")
		reqMetric = fs.String("require-metric", "", "NAME=METRIC[,...]: after snapshot's NAME must report METRIC > 0")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if (*out == "") == (*check == "") {
		return fmt.Errorf("exactly one of -o FILE or -check FILE is required")
	}

	var f File
	path := *check
	if *out != "" {
		path = *out
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				return fmt.Errorf("%s: %w", *out, err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		benches, err := parseBench(os.Stdin)
		if err != nil {
			return err
		}
		if len(benches) == 0 {
			return fmt.Errorf("no benchmark lines on stdin")
		}
		if f.Snapshots == nil {
			f.Snapshots = map[string]Snapshot{}
		}
		f.Snapshots[*label] = Snapshot{Benchmarks: benches}
		data, err := json.MarshalIndent(&f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		data, err := os.ReadFile(*check)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", *check, err)
		}
	}
	return validate(&f, path, *require, *minRatio, *reqMetric)
}

// validate applies the -require, -min-bytes-ratio and -require-metric
// gates to f.
func validate(f *File, path, require, minRatio, reqMetric string) error {
	if len(f.Snapshots) == 0 {
		return fmt.Errorf("%s: no snapshots", path)
	}
	if require != "" {
		var labels []string
		for l := range f.Snapshots {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			snap := f.Snapshots[l]
			for _, name := range strings.Split(require, ",") {
				if findBench(snap, strings.TrimSpace(name)) == nil {
					return fmt.Errorf("%s: snapshot %q is missing required benchmark %q", path, l, name)
				}
			}
		}
	}
	if minRatio != "" {
		name, ratioStr, ok := strings.Cut(minRatio, "=")
		if !ok {
			return fmt.Errorf("-min-bytes-ratio wants NAME=R (got %q)", minRatio)
		}
		ratio, err := strconv.ParseFloat(ratioStr, 64)
		if err != nil || ratio <= 0 {
			return fmt.Errorf("-min-bytes-ratio %q: bad ratio", minRatio)
		}
		base := findBench(f.Snapshots["baseline"], name)
		after := findBench(f.Snapshots["after"], name)
		if base == nil || after == nil {
			return fmt.Errorf("%s: -min-bytes-ratio %s needs the benchmark in both %q snapshots", path, name, "baseline/after")
		}
		if after.BytesPerOp <= 0 {
			return fmt.Errorf("%s: %s after snapshot has no bytes/op (run with -benchmem)", path, name)
		}
		if got := base.BytesPerOp / after.BytesPerOp; got < ratio {
			return fmt.Errorf("%s: %s bytes/op improved only %.2fx (baseline %.0f -> after %.0f); floor is %.1fx",
				path, name, got, base.BytesPerOp, after.BytesPerOp, ratio)
		}
	}
	if reqMetric != "" {
		after := f.Snapshots["after"]
		for _, pair := range strings.Split(reqMetric, ",") {
			name, metric, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return fmt.Errorf("-require-metric wants NAME=METRIC (got %q)", pair)
			}
			b := findBench(after, name)
			if b == nil {
				return fmt.Errorf("%s: snapshot %q is missing benchmark %q (-require-metric)", path, "after", name)
			}
			if b.Metrics[metric] <= 0 {
				return fmt.Errorf("%s: after snapshot's %s reports no %s metric (got %g) — its bench lost the b.ReportMetric call",
					path, name, metric, b.Metrics[metric])
			}
		}
	}
	return nil
}

func findBench(s Snapshot, name string) *Benchmark {
	for i := range s.Benchmarks {
		if s.Benchmarks[i].Name == name {
			return &s.Benchmarks[i]
		}
	}
	return nil
}

// parseBench reads `go test -bench` output: lines of the form
//
//	BenchmarkName-8  100  123 ns/op  456 B/op  7 allocs/op  30000 fleet_size
//
// Non-benchmark lines (the goos/pkg header, PASS, ok) are skipped. The
// Benchmark prefix and the -N GOMAXPROCS suffix are stripped from names.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Benchmark{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad benchmark value %q in %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

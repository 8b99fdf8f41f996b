package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkClaimC7Reduced-1   	       3	 436716460 ns/op	175010040 B/op	  628302 allocs/op
BenchmarkScheduleFire-1     	15000000	        76.02 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig1Stuxnet-1      	     100	  12345678 ns/op	     984 centrifuges_destroyed
PASS
ok  	repro	5.1s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	c7 := got[0]
	if c7.Name != "ClaimC7Reduced" || c7.Iterations != 3 ||
		c7.NsPerOp != 436716460 || c7.BytesPerOp != 175010040 || c7.AllocsPerOp != 628302 {
		t.Fatalf("C7 parsed wrong: %+v", c7)
	}
	if got[1].Name != "ScheduleFire" || got[1].BytesPerOp != 0 {
		t.Fatalf("ScheduleFire parsed wrong: %+v", got[1])
	}
	if got[2].Metrics["centrifuges_destroyed"] != 984 {
		t.Fatalf("custom metric lost: %+v", got[2])
	}
}

func snapFile(baseline, after float64) *File {
	return &File{Snapshots: map[string]Snapshot{
		"baseline": {Benchmarks: []Benchmark{{Name: "ClaimC7Reduced", Iterations: 1, BytesPerOp: baseline}}},
		"after":    {Benchmarks: []Benchmark{{Name: "ClaimC7Reduced", Iterations: 1, BytesPerOp: after}}},
	}}
}

func TestValidateRatioGate(t *testing.T) {
	if err := validate(snapFile(200, 99), "f", "ClaimC7Reduced", "ClaimC7Reduced=2", ""); err != nil {
		t.Fatalf("2.02x improvement must pass the 2x floor: %v", err)
	}
	if err := validate(snapFile(200, 101), "f", "", "ClaimC7Reduced=2", ""); err == nil {
		t.Fatal("1.98x improvement passed the 2x floor")
	}
	if err := validate(snapFile(200, 99), "f", "NoSuchBench", "", ""); err == nil {
		t.Fatal("missing required benchmark passed")
	}
	if err := validate(&File{}, "f", "", "", ""); err == nil {
		t.Fatal("empty file passed")
	}
}

func TestValidateMetricGate(t *testing.T) {
	f := snapFile(200, 99)
	after := f.Snapshots["after"]
	after.Benchmarks[0].Metrics = map[string]float64{"ns/host-event": 66000}
	f.Snapshots["after"] = after

	if err := validate(f, "f", "", "", "ClaimC7Reduced=ns/host-event"); err != nil {
		t.Fatalf("present metric must pass: %v", err)
	}
	// Only "after" is checked: the frozen baseline predates the metric.
	if _, ok := f.Snapshots["baseline"].Benchmarks[0].Metrics["ns/host-event"]; ok {
		t.Fatal("test setup broken: baseline should lack the metric")
	}
	if err := validate(f, "f", "", "", "ClaimC7Reduced=no_such_metric"); err == nil {
		t.Fatal("missing metric passed")
	}
	if err := validate(f, "f", "", "", "NoSuchBench=ns/host-event"); err == nil {
		t.Fatal("missing benchmark passed the metric gate")
	}
	if err := validate(f, "f", "", "", "malformed-pair"); err == nil {
		t.Fatal("malformed -require-metric accepted")
	}
	after.Benchmarks[0].Metrics["ns/host-event"] = 0
	if err := validate(f, "f", "", "", "ClaimC7Reduced=ns/host-event"); err == nil {
		t.Fatal("zero-valued metric passed")
	}
}

// TestStrayArgumentRejected: a word left over after the flags is an
// error that names it, not silently dropped.
func TestStrayArgumentRejected(t *testing.T) {
	if err := run([]string{"-check", "BENCH_C7.json", "stray"}); err == nil || err.Error() != `unexpected argument "stray"` {
		t.Fatalf("stray argument = %v, want it named", err)
	}
}

package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceMetricsDeterministicAcrossWorkers asserts the PR's contract:
// the -trace and -metrics artefacts are byte-identical no matter how many
// workers ran the experiments. Uses a fast subset so the matrix stays
// test-tier.
func TestTraceMetricsDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var refTrace, refMetrics []byte
	for _, p := range []string{"1", "4", "8"} {
		tr := filepath.Join(dir, "trace-"+p+".jsonl")
		mt := filepath.Join(dir, "metrics-"+p+".json")
		if err := run(context.Background(), []string{"-run", "F2,F3,C1,C8", "-parallel", p, "-trace", tr, "-metrics", mt}); err != nil {
			t.Fatalf("-parallel %s: %v", p, err)
		}
		gotTrace, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		gotMetrics, err := os.ReadFile(mt)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTrace) == 0 || len(gotMetrics) == 0 {
			t.Fatalf("-parallel %s: empty artefacts (trace %d bytes, metrics %d bytes)",
				p, len(gotTrace), len(gotMetrics))
		}
		if refTrace == nil {
			refTrace, refMetrics = gotTrace, gotMetrics
			continue
		}
		if !bytes.Equal(gotTrace, refTrace) {
			t.Errorf("-parallel %s: trace differs from -parallel 1", p)
		}
		if !bytes.Equal(gotMetrics, refMetrics) {
			t.Errorf("-parallel %s: metrics differ from -parallel 1", p)
		}
	}
}

func TestTraceRejectedWithSeeds(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..2", "-trace", filepath.Join(t.TempDir(), "t.jsonl")}); err == nil {
		t.Fatal("-trace with -seeds accepted; sweeps discard per-run events")
	}
}

func TestRunCommaListRejectsUnknownID(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3,ZZ"}); err == nil {
		t.Fatal("unknown ID in -run list accepted")
	}
}

func TestSweepMetricsWritten(t *testing.T) {
	mt := filepath.Join(t.TempDir(), "m.json")
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..2", "-metrics", mt}); err != nil {
		t.Fatalf("sweep with -metrics: %v", err)
	}
	data, err := os.ReadFile(mt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("counters")) {
		t.Fatalf("sweep metrics snapshot missing counters section: %s", data)
	}
}

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

// TestReportMatchesCommitted regenerates EXPERIMENTS.md from a live run
// and diffs it against the committed copy — the same drift gate ci.sh
// applies. Skipped under -short (the full run includes the 30k-host C7).
func TestReportMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("full -report run skipped in -short mode")
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := run(context.Background(), []string{"-report", "-o", out}); err != nil {
		t.Fatalf("-report: %v", err)
	}
	generated, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(generated, committed) {
		t.Fatalf("EXPERIMENTS.md drifted from `cyberlab -report` output; regenerate with\n" +
			"  go run ./cmd/cyberlab -report -o EXPERIMENTS.md")
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

package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstats"
)

// captureArtefacts runs ids and renders the three deterministic byte
// streams the CLI exports: the rendered report, the JSONL trace, and
// the merged metrics JSON — the same walk writeObsOutputs performs.
func captureArtefacts(t *testing.T, ids []string, workers int) (report, trace, metrics string) {
	t.Helper()
	reports := RunExperiments(ids, 1, workers)
	var rep, tr bytes.Buffer
	var merged obs.Snapshot
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		rep.WriteString(r.Result.Render())
		if err := obs.WriteJSONL(&tr, r.Result.Events); err != nil {
			t.Fatalf("render trace: %v", err)
		}
		merged.Merge(r.Result.Obs)
	}
	mj, err := merged.JSON()
	if err != nil {
		t.Fatalf("render metrics: %v", err)
	}
	return rep.String(), tr.String(), string(mj)
}

// TestRunstatsDeterminismIsolation is the telemetry-plane property test
// (ISSUE 8): enabling the wall-clock collector — probes sampling every
// kernel, a live progress ticker, per-experiment recording — must leave
// every drift-gated byte stream identical to a telemetry-off run, at
// any worker count. D1 rides along so the streaming detection engine's
// alert spans are covered too.
func TestRunstatsDeterminismIsolation(t *testing.T) {
	ids := []string{"F3", "C1", "C8", "D1"}
	wantReport, wantTrace, wantMetrics := captureArtefacts(t, ids, 1)
	if wantTrace == "" || wantMetrics == "" {
		t.Fatal("baseline artefacts empty")
	}

	for _, workers := range []int{1, 4, 8} {
		c := runstats.Enable()
		stop := c.StartProgress(io.Discard, time.Millisecond)
		gotReport, gotTrace, gotMetrics := captureArtefacts(t, ids, workers)
		stop()
		runstats.Disable()

		if gotReport != wantReport {
			t.Fatalf("telemetry-on report differs at %d workers", workers)
		}
		if gotTrace != wantTrace {
			t.Fatalf("telemetry-on trace differs at %d workers", workers)
		}
		if gotMetrics != wantMetrics {
			t.Fatalf("telemetry-on metrics differ at %d workers", workers)
		}

		// And the collector actually observed the run: it is isolation,
		// not a disconnected no-op.
		if c.Events() == 0 {
			t.Fatalf("collector sampled no events at %d workers", workers)
		}
		m := c.Manifest()
		if len(m.Experiments) != len(ids) {
			t.Fatalf("manifest records %d experiments, want %d", len(m.Experiments), len(ids))
		}
		for _, e := range m.Experiments {
			if !e.Ok {
				t.Fatalf("manifest marks %s failed", e.ID)
			}
		}
	}
}

// TestRunstatsManifestPhases: driving real experiments populates the
// world-build / fleet-build / run phase timers.
func TestRunstatsManifestPhases(t *testing.T) {
	c := runstats.Enable()
	defer runstats.Disable()
	if rep := runOne(nil, "A3", 1); rep.Err != nil { // A3 builds a 512-host sharded fleet
		t.Fatal(rep.Err)
	}
	m := c.Manifest()
	seen := map[string]bool{}
	for _, p := range m.Phases {
		seen[p.Name] = p.WallSecs >= 0
	}
	for _, want := range []string{"world-build", "fleet-build", "run"} {
		if !seen[want] {
			t.Fatalf("phase %q missing from manifest (got %+v)", want, m.Phases)
		}
	}
	if m.Kernel.Hosts < 512 {
		t.Fatalf("hosts = %d, want >= 512 (A3 fleet)", m.Kernel.Hosts)
	}
}

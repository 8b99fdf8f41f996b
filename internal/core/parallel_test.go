package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// raceIDs is the fast experiment subset the -race CI lane sweeps; heavy
// fleet runs (C7) are covered by the short-guarded full-run test below.
var raceIDs = []string{"F3", "C1", "C8"}

func renderReports(t *testing.T, reports []RunReport) string {
	t.Helper()
	var b strings.Builder
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("%s (seed %d): %v", rep.ID, rep.Seed, rep.Err)
		}
		b.WriteString(rep.Result.Render())
	}
	return b.String()
}

func TestRunExperimentsParallelDeterminism(t *testing.T) {
	ids := []string{"F2", "F3", "C1", "C6", "C8"}
	want := renderReports(t, RunExperiments(ids, 1, 1))
	if want == "" {
		t.Fatal("empty sequential report")
	}
	for _, workers := range []int{4, 8} {
		got := renderReports(t, RunExperiments(ids, 1, workers))
		if got != want {
			t.Fatalf("report with %d workers differs from sequential:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

// TestTwoEnvsRunInParallel: two runs under different Envs share the
// process at the same time, and every report's bytes equal those of the
// same Env run alone — any configuration held in process state would
// leak from one run into the other.
func TestTwoEnvsRunInParallel(t *testing.T) {
	ids := []string{"R2", "C9", "D1"}
	var busy Env
	if err := busy.ParseKey(EnvKey{Faults: "chaos", Activity: "enterprise"}); err != nil {
		t.Fatal(err)
	}
	envs := []*Env{nil, &busy}
	alone := make([][]RunReport, len(envs))
	for i, env := range envs {
		alone[i] = RunExperimentsOpts(ids, 1, RunOptions{Env: env, Workers: 2})
	}
	together := make([][]RunReport, len(envs))
	var wg sync.WaitGroup
	for i, env := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = RunExperimentsOpts(ids, 1, RunOptions{Env: env, Workers: 2})
		}()
	}
	wg.Wait()
	for j, id := range ids {
		if bytes.Equal(payloadBytes(t, alone[0][j]), payloadBytes(t, alone[1][j])) {
			t.Fatalf("%s gives the same bytes under both Envs; the test cannot tell them apart", id)
		}
		for i := range envs {
			if !bytes.Equal(payloadBytes(t, together[i][j]), payloadBytes(t, alone[i][j])) {
				t.Fatalf("%s under Env %d changed bytes while the other Env ran alongside", id, i)
			}
		}
	}
}

func TestRaceLaneParallelSweep(t *testing.T) {
	// The -race lane target: worker pool + multi-seed sweep over the fast
	// subset, enough concurrency to surface any shared mutable state
	// between worlds.
	seeds := []uint64{1, 2, 3}
	want := SweepSeeds(nil, raceIDs, seeds, 1)
	got := SweepSeeds(nil, raceIDs, seeds, 8)
	if RenderSweep(got) != RenderSweep(want) {
		t.Fatalf("sweep with 8 workers differs from sequential:\n--- got ---\n%s\n--- want ---\n%s",
			RenderSweep(got), RenderSweep(want))
	}
	for _, e := range got {
		if e.Seeds != len(seeds) || e.Passes != len(seeds) || len(e.Errors) != 0 {
			t.Fatalf("%s: seeds=%d passes=%d errs=%d, want %d/%d/0", e.ID, e.Seeds, e.Passes, len(e.Errors), len(seeds), len(seeds))
		}
		if len(e.Metrics) == 0 {
			t.Fatalf("%s: no aggregated metrics", e.ID)
		}
		for _, m := range e.Metrics {
			if !(m.Min <= m.Mean && m.Mean <= m.Max) {
				t.Fatalf("%s %s: min/mean/max out of order: %v/%v/%v", e.ID, m.Name, m.Min, m.Mean, m.Max)
			}
		}
	}
}

func TestRunAllParallelMatchesSequentialFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite double run skipped in -short mode")
	}
	want := renderReports(t, RunExperiments(ExperimentIDs(), 1, 1))
	got := renderReports(t, RunExperiments(ExperimentIDs(), 1, 8))
	if got != want {
		t.Fatal("full parallel report differs from sequential run")
	}
}

func TestRunExperimentsCollectsErrorsAndKeepsRunning(t *testing.T) {
	registerTempExperiment(t, "ZZ-boom", func(*Env, uint64) (*Result, error) {
		return nil, errors.New("synthetic failure")
	})
	registerTempExperiment(t, "ZZ-panic", func(*Env, uint64) (*Result, error) {
		panic("synthetic panic")
	})

	reports := RunExperiments([]string{"ZZ-boom", "ZZ-panic", "ZZ-unknown", "F3"}, 1, 2)
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	for i, wantErr := range []string{"synthetic failure", "panic", "unknown ID"} {
		if reports[i].Err == nil || !strings.Contains(reports[i].Err.Error(), wantErr) {
			t.Fatalf("report %d err = %v, want substring %q", i, reports[i].Err, wantErr)
		}
	}
	last := reports[3]
	if last.Err != nil || last.Result == nil || !last.Result.Pass {
		t.Fatalf("F3 after failures: err=%v result=%v", last.Err, last.Result)
	}
	if err := JoinErrors(reports); err == nil || !strings.Contains(err.Error(), "ZZ-boom") {
		t.Fatalf("JoinErrors = %v, want joined failures", err)
	}
}

func TestSweepSeedsEmptyInputs(t *testing.T) {
	if SweepSeeds(nil, nil, []uint64{1}, 4) != nil {
		t.Fatal("sweep of no experiments should be nil")
	}
	if SweepSeeds(nil, []string{"F3"}, nil, 4) != nil {
		t.Fatal("sweep of no seeds should be nil")
	}
}

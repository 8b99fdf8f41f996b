package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/malware/shamoon"
	"repro/internal/runstats"
	"repro/internal/sim"
)

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

// TestRunstatsRecordsRetriedExperimentOnce: a retried experiment is one
// report, so the collector gets one entry for it however many attempts
// it took, and the retries show up only in the supervision counts.
func TestRunstatsRecordsRetriedExperimentOnce(t *testing.T) {
	registerTempExperiment(t, "ZZ-fail", func(*Env, uint64) (*Result, error) {
		return nil, errors.New("always fails")
	})
	c := runstats.Enable()
	defer runstats.Disable()
	reports := RunExperimentsOpts([]string{"ZZ-fail", "F3"}, 1, RunOptions{MaxRetries: 2})
	if reports[0].Attempts != 3 || reports[1].Err != nil {
		t.Fatalf("ZZ-fail attempts = %d, F3 err = %v; want 3 attempts and F3 passing", reports[0].Attempts, reports[1].Err)
	}
	m := c.Manifest()
	ok := make(map[string][]bool)
	for _, e := range m.Experiments {
		ok[e.ID] = append(ok[e.ID], e.Ok)
	}
	if len(m.Experiments) != 2 || !slices.Equal(ok["ZZ-fail"], []bool{false}) || !slices.Equal(ok["F3"], []bool{true}) {
		t.Fatalf("manifest experiments = %+v, want ZZ-fail once failed and F3 once ok", m.Experiments)
	}
	if m.Supervision.Retries != 2 {
		t.Fatalf("supervision.retries = %d, want 2", m.Supervision.Retries)
	}
}

// depthProbe records the deepest queue its kernel sampled.
type depthProbe struct{ deepest int }

func (p *depthProbe) KernelSample(s sim.Sample) { p.deepest = max(p.deepest, s.Pending) }

// TestRunstatsMaxQueueDepthIsDeepestKernel: on a partitioned fleet the
// manifest's max_queue_depth is the deepest queue any one site kernel
// sampled, not a watermark of the sum, which moves with the order in
// which the partition workers sample. The fleet is populated so that
// every site kernel, not only the hub's, runs enough events to sample.
func TestRunstatsMaxQueueDepthIsDeepestKernel(t *testing.T) {
	c := runstats.Enable()
	defer runstats.Disable()
	opts := busyC7Options(2000)
	opts.Workers = 2
	f, err := BuildAramcoFleet(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]*depthProbe, len(f.Sites))
	for i, k := range f.Kernels() {
		probes[i] = &depthProbe{}
		k.AttachProbe(probes[i])
	}
	f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour))
	deepest := 0
	for i, k := range f.Kernels() {
		k.FlushProbe()
		deepest = max(deepest, probes[i].deepest)
	}
	if deepest == 0 {
		t.Fatal("no site kernel sampled a queued event")
	}
	if got := c.Manifest().Kernel.MaxQueueDepth; got != int64(deepest) {
		t.Fatalf("manifest max_queue_depth = %d, want %d, the deepest queue any site kernel sampled", got, deepest)
	}
}

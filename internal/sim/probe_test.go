package sim

import (
	"testing"
	"time"
)

// recordingProbe counts deliveries into plain fields; it allocates
// nothing per sample, so the alloc tests below isolate the kernel's own
// hot-loop cost.
type recordingProbe struct {
	samples    int
	lastSteps  uint64
	lastVNow   time.Time
	maxPending int
	hits       uint64
	misses     uint64
}

func (p *recordingProbe) KernelSample(s Sample) {
	p.samples++
	p.lastSteps = s.Steps
	p.lastVNow = s.VNow
	if s.Pending > p.maxPending {
		p.maxPending = s.Pending
	}
	p.hits = s.PoolHits
	p.misses = s.PoolMisses
}

// TestProbeSamplingCadence pins the contract: one sample per `every`
// executed events, plus whatever FlushProbe delivers at the end.
func TestProbeSamplingCadence(t *testing.T) {
	k := NewKernel()
	p := &recordingProbe{}
	k.AttachProbe(p, 10)
	for i := 0; i < 95; i++ {
		k.Schedule(time.Duration(i)*time.Second, "tick", func() {})
	}
	k.Drain(1000)
	if p.samples != 9 {
		t.Fatalf("samples = %d after 95 steps at every=10, want 9", p.samples)
	}
	if p.lastSteps != 90 {
		t.Fatalf("last sampled step = %d, want 90", p.lastSteps)
	}
	k.FlushProbe()
	if p.samples != 10 || p.lastSteps != 95 {
		t.Fatalf("flush: samples=%d lastSteps=%d, want 10/95", p.samples, p.lastSteps)
	}
	if p.lastVNow != k.Now() {
		t.Fatalf("flushed VNow = %v, want kernel now %v", p.lastVNow, k.Now())
	}
}

// TestProbeDefaultCadence: every <= 0 selects DefaultProbeEvery.
func TestProbeDefaultCadence(t *testing.T) {
	k := NewKernel()
	k.AttachProbe(&recordingProbe{}, 0)
	if k.probeEvery != DefaultProbeEvery {
		t.Fatalf("probeEvery = %d, want %d", k.probeEvery, DefaultProbeEvery)
	}
}

// TestPoolStatsAccounting pins hit/miss bookkeeping: first schedules
// allocate (misses), steady-state schedules recycle (hits), and the
// probe sees the same numbers PoolStats reports.
func TestPoolStatsAccounting(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	k.Schedule(time.Second, "a", fn)
	k.Step()
	k.Schedule(time.Second, "b", fn) // reuses a's struct
	k.Step()
	ps := k.PoolStats()
	if ps.Hits != 1 || ps.Misses != 1 {
		t.Fatalf("PoolStats = %d hits / %d misses, want 1/1", ps.Hits, ps.Misses)
	}
	if !ps.Balanced() {
		t.Fatalf("pool unbalanced after drained run: %+v", ps)
	}
	p := &recordingProbe{}
	k.AttachProbe(p, 1)
	k.FlushProbe()
	if p.hits != ps.Hits || p.misses != ps.Misses {
		t.Fatalf("probe saw %d/%d, PoolStats says %d/%d", p.hits, p.misses, ps.Hits, ps.Misses)
	}
}

// TestProbeDoesNotPerturbDeterminism replays the pool-churn workload
// with and without an attached probe and requires identical execution
// order, metrics, and trace bytes — the probe plane is read-only.
func TestProbeDoesNotPerturbDeterminism(t *testing.T) {
	run := func(attach bool) (uint64, string, string) {
		k := NewKernel(WithSeed(7))
		if attach {
			k.AttachProbe(&recordingProbe{}, 16)
		}
		for i := 0; i < 300; i++ {
			d := time.Duration(1+k.RNG().Intn(3600)) * time.Second
			k.Schedule(d, "churn", func() {
				if k.RNG().Bool(0.5) {
					k.Trace().Add(k.Now(), CatExec, "t", "spawn")
					k.Schedule(time.Duration(1+k.RNG().Intn(600))*time.Second, "child", func() {})
				}
			})
		}
		k.Drain(10_000)
		var events []string
		for _, e := range k.Trace().Events() {
			events = append(events, e.Msg)
		}
		return k.Steps(), k.Metrics().Snapshot().Text(), join(events)
	}
	s1, m1, t1 := run(false)
	s2, m2, t2 := run(true)
	if s1 != s2 || m1 != m2 || t1 != t2 {
		t.Fatalf("probe perturbed the run: steps %d vs %d, metrics equal=%v, trace equal=%v",
			s1, s2, m1 == m2, t1 == t2)
	}
}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + "\n"
	}
	return out
}

// TestProbeDisabledPathAllocs is the acceptance-criteria gate: with no
// probe attached (the default), the sampling hook must add zero
// allocations to the schedule/fire hot loop.
func TestProbeDisabledPathAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(time.Second, "steady", fn)
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("disabled-probe schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// TestProbeEnabledPathAllocs: even with a probe attached and sampling
// every step, the kernel side of delivery is allocation-free (the Sample
// struct is passed by value, never boxed).
func TestProbeEnabledPathAllocs(t *testing.T) {
	k := NewKernel()
	k.AttachProbe(&recordingProbe{}, 1)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(time.Second, "steady", fn)
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("enabled-probe schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkScheduleFireProbed is BenchmarkScheduleFire's probed twin:
// the delta between the two is the cost of live telemetry sampling.
func BenchmarkScheduleFireProbed(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.AttachProbe(&recordingProbe{}, DefaultProbeEvery)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Second, "bench", fn)
		k.Step()
	}
}

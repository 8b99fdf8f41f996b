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

// TestProbeSamplingCadence pins the contract: one sample per
// DefaultProbeEvery executed events, plus whatever FlushProbe delivers
// at the end.
func TestProbeSamplingCadence(t *testing.T) {
	k := NewKernel()
	p := &recordingProbe{}
	k.AttachProbe(p)
	const steps = 3*DefaultProbeEvery + 95
	for i := 0; i < steps; i++ {
		k.Schedule(time.Duration(i)*time.Second, "tick", func() {})
	}
	k.Drain(2 * steps)
	if p.samples != 3 {
		t.Fatalf("samples = %d after %d steps, want 3", p.samples, steps)
	}
	if p.lastSteps != 3*DefaultProbeEvery {
		t.Fatalf("last sampled step = %d, want %d", p.lastSteps, 3*DefaultProbeEvery)
	}
	k.FlushProbe()
	if p.samples != 4 || p.lastSteps != steps {
		t.Fatalf("flush: samples=%d lastSteps=%d, want 4/%d", p.samples, p.lastSteps, steps)
	}
	if p.lastVNow != k.Now() {
		t.Fatalf("flushed VNow = %v, want kernel now %v", p.lastVNow, k.Now())
	}
}

// TestProbeDefaultCadence: the cadence follows the kernel's step count,
// so a probe attached mid-run first samples at the next multiple of
// DefaultProbeEvery, not DefaultProbeEvery steps after it attached.
func TestProbeDefaultCadence(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < DefaultProbeEvery+100; i++ {
		k.Schedule(time.Duration(i+1)*time.Second, "tick", fn)
	}
	k.Drain(DefaultProbeEvery - 100)
	p := &recordingProbe{}
	k.AttachProbe(p)
	k.Drain(DefaultProbeEvery)
	if p.samples != 1 || p.lastSteps != DefaultProbeEvery {
		t.Fatalf("samples = %d, last at step %d; want 1 at step %d", p.samples, p.lastSteps, DefaultProbeEvery)
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
	k.AttachProbe(p)
	k.FlushProbe()
	if p.hits != ps.Hits || p.misses != ps.Misses {
		t.Fatalf("probe saw %d/%d, PoolStats says %d/%d", p.hits, p.misses, ps.Hits, ps.Misses)
	}
}

// TestProbeDoesNotPerturbDeterminism replays the pool-churn workload
// with and without an attached probe and requires identical execution
// order, metrics, and trace bytes — the probe plane is read-only. The
// workload runs about 4,500 steps, so the probe samples several times.
func TestProbeDoesNotPerturbDeterminism(t *testing.T) {
	p := &recordingProbe{}
	run := func(attach bool) (uint64, string, string) {
		k := NewKernel(WithSeed(7))
		if attach {
			k.AttachProbe(p)
		}
		for i := 0; i < 3000; i++ {
			d := time.Duration(1+k.RNG().Intn(3600)) * time.Second
			k.Schedule(d, "churn", func() {
				if k.RNG().Intn(2) == 0 {
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
		metrics, err := k.Metrics().Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return k.Steps(), string(metrics), join(events)
	}
	s1, m1, t1 := run(false)
	s2, m2, t2 := run(true)
	if p.samples < 3 {
		t.Fatalf("probe sampled %d times over %d steps; the check is vacuous", p.samples, s2)
	}
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

// TestProbeEnabledPathAllocs: even with a probe attached and sampling,
// the kernel side of delivery is allocation-free (the Sample struct is
// passed by value, never boxed). Each measured run steps the kernel
// DefaultProbeEvery times, so it delivers exactly one sample.
func TestProbeEnabledPathAllocs(t *testing.T) {
	k := NewKernel()
	p := &recordingProbe{}
	k.AttachProbe(p)
	fn := func() {}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < DefaultProbeEvery; i++ {
			k.Schedule(time.Second, "steady", fn)
			k.Step()
		}
	})
	if p.samples < 10 {
		t.Fatalf("probe sampled %d times, want one per measured run", p.samples)
	}
	if allocs > 0 {
		t.Fatalf("enabled-probe schedule/fire allocates %.1f objects per %d ops, want 0", allocs, DefaultProbeEvery)
	}
}

// BenchmarkScheduleFireProbed is BenchmarkScheduleFire's probed twin:
// the delta between the two is the cost of live telemetry sampling.
func BenchmarkScheduleFireProbed(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.AttachProbe(&recordingProbe{})
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Second, "bench", fn)
		k.Step()
	}
}

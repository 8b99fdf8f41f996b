package core

import (
	"runtime"
	"testing"

	"repro/internal/users"
)

func TestD4NoisyPrecision(t *testing.T) {
	res := runExperiment(t, "D4")
	if v := res.MustMetric("recall"); v != 1 {
		t.Fatalf("noise cost recall: %v", v)
	}
	if v := res.MustMetric("false_positives"); v == 0 {
		t.Fatal("populated fleet produced zero false positives — the noise layer is not exercising the pack")
	}
	if v := res.MustMetric("unattributed_alerts"); v != 0 {
		t.Fatalf("%v alerts not attributable to a provenance root", v)
	}
}

func TestD5NoiseFloor(t *testing.T) {
	res := runExperiment(t, "D5")
	if v := res.MustMetric("fp_threshold_rules") + res.MustMetric("fp_sequence_rules"); v != 0 {
		t.Fatalf("stateful rules fired on pure noise: %v", v)
	}
	if res.MustMetric("false_positives") != res.MustMetric("maintenance_rounds") {
		t.Fatal("noise floor is not exactly one alert per admin maintenance round")
	}
	if v := res.MustMetric("fp_untriaged"); v != 0 {
		t.Fatalf("%v false positives do not chain to a benign session root", v)
	}
}

// busyC7Options is the C7 layout with every workstation carrying an
// office agent — the populated twin of C7Options.
func busyC7Options(hosts int) AramcoFleetOptions {
	opts := C7Options(hosts)
	opts.Activity = users.MixOffice
	return opts
}

// TestAramcoBusyBuildWorkerInvariant: the populated fleet is
// byte-identical (same experiment metrics, same benign action counts)
// whatever the partition width that builds and advances its sites —
// each site attaches its users after its hosts, in host order, on one
// goroutine.
func TestAramcoBusyBuildWorkerInvariant(t *testing.T) {
	get := func(workers int) string {
		opts := busyC7Options(200)
		opts.Workers = workers
		res, err := RunAramcoFleet(1, opts)
		if err != nil {
			t.Fatalf("busy RunAramcoFleet(workers=%d): %v", workers, err)
		}
		return res.Render()
	}
	want := get(1)
	for _, workers := range []int{4, 8} {
		if got := get(workers); got != want {
			t.Fatalf("busy fleet with %d workers diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestBusyFleetMemoryBound is the busy-fleet cost gate at reduced scale:
// populating the six-site C7 fleet with office agents must stay within
// 1.3x of the silent fleet's allocations (the BENCH_C7.json
// UsersC7BusyReduced / ClaimC7Reduced pair records the same 2,000-host
// comparison).
func TestBusyFleetMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	alloc := func(f func() error) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	silent := alloc(func() error {
		res, err := RunAramcoFleet(1, C7Options(2000))
		if err == nil && !res.Pass {
			t.Fatal("silent C7 run failed its own criteria")
		}
		return err
	})
	busy := alloc(func() error {
		res, err := RunAramcoFleet(1, busyC7Options(2000))
		if err == nil && !res.Pass {
			t.Fatal("busy C7 run failed its own criteria")
		}
		return err
	})
	ratio := busy / silent
	t.Logf("busy %.2f MB, silent %.2f MB, ratio %.3fx (budget 1.3x)", busy/1e6, silent/1e6, ratio)
	if ratio > 1.3 {
		t.Fatalf("populated fleet costs %.2fx the silent baseline (%.0f vs %.0f bytes), budget is 1.3x",
			ratio, busy, silent)
	}
}

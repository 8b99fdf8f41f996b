package core

import (
	"runtime"
	"testing"
)

// TestC7FullScale runs the complete 30,000-workstation experiment. It is
// the heaviest test in the repository; skip with -short.
func TestC7FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("30k-host fleet run skipped in -short mode")
	}
	res, err := RunC7AramcoScale(nil, 1)
	if err != nil {
		t.Fatalf("C7: %v", err)
	}
	if !res.Pass {
		t.Fatalf("C7 did not reproduce:\n%s", res.Render())
	}
	if res.MustMetric("wiped_unbootable") != 30000 {
		t.Fatalf("wiped = %v", res.MustMetric("wiped_unbootable"))
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.Logf("heap after fleet run: %d MB", m.HeapAlloc>>20)
}

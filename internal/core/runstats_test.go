package core

import (
	"testing"

	"repro/internal/runstats"
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

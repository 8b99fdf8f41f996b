package core

import (
	"testing"

	"repro/internal/provenance"
)

// TestProvenanceForestsValidAcrossExperiments is the PR's property test:
// every experiment's captured event stream must reconstruct into a valid
// causal forest — every referenced parent span present, parents opening
// no later than their children, allocation order monotone. Experiments
// that mute their trace (C7, A3) legitimately yield empty forests; the
// flagship campaigns must not.
func TestProvenanceForestsValidAcrossExperiments(t *testing.T) {
	mustHaveTrees := map[string]bool{
		"F1": true, // Stuxnet: Natanz operation
		"C4": true, // Flame: module growth
		"C9": true, // Shamoon: spread + wipe + report
		"T1": true, // multi-kernel capture exercises the span remap
	}
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if id == "C7" && testing.Short() {
				t.Skip("C7 skipped in -short mode")
			}
			rep := runOne(nil, id, 1)
			if rep.Err != nil {
				t.Fatalf("run: %v", rep.Err)
			}
			f := provenance.Build(rep.Result.Events)
			for _, issue := range f.Validate() {
				t.Errorf("invalid forest: %s", issue)
			}
			if len(f.Orphans) > 0 {
				t.Errorf("%d orphan nodes (opening records lost?)", len(f.Orphans))
			}
			if mustHaveTrees[id] && len(f.Roots) == 0 {
				t.Errorf("expected infection trees, got an empty forest (%d events)", len(rep.Result.Events))
			}
			// Span uniqueness after the multi-kernel remap: node count must
			// equal the number of distinct span IDs seen.
			seen := make(map[uint64]bool)
			for _, e := range rep.Result.Events {
				if e.Span != 0 {
					seen[uint64(e.Span)] = true
				}
			}
			if len(seen) != len(f.Nodes) {
				t.Errorf("span collision: %d distinct span IDs vs %d nodes", len(seen), len(f.Nodes))
			}
		})
	}
}

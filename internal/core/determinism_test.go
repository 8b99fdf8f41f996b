package core

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/runstats"
)

// matrixCell is how a row, or one of its modes alone, runs experiments.
type matrixCell struct {
	name     string // the row's, or the mode's when it runs alone
	env      Env
	workers  int
	retries  int
	runstats bool // wall-clock collector on, with a 1 ms progress ticker
	journal  bool // record a journal, then serve every report from it at another width
	fork     bool // checkpoint each stream at its vtime midpoint, fork at another width
}

// matrixMode is one execution mode: a change to how a cell runs.
type matrixMode struct {
	name  string
	apply func(*matrixCell)
}

// matrixRows compose the modes so that each appears in at least one row
// while the matrix runs the catalog as few times as it can.
var matrixRows = [][]matrixMode{
	{
		{"parallel4", func(c *matrixCell) { c.workers = 4 }},
		{"partitions4", func(c *matrixCell) { c.env.Partitions = 4 }},
		{"runstats", func(c *matrixCell) { c.runstats = true }},
		// Windows no run reaches: the watch probes and timers are armed
		// and never fire.
		{"stall+deadline", func(c *matrixCell) { c.env.Stall, c.env.Deadline = time.Minute, 10*time.Minute }},
		{"retries1", func(c *matrixCell) { c.retries = 1 }},
		{"journal+resume", func(c *matrixCell) { c.journal = true }},
	},
	{
		{"checkpoint+fork", func(c *matrixCell) { c.fork = true }},
	},
}

// TestExperimentDeterminism is the determinism matrix (DESIGN.md §5):
// an experiment's report, trace, metrics and alert bytes depend only on
// (experiment, seed, faults, activity), never on how the run executes.
// A sequential zero-Env run of every registry experiment, plus the
// unmuted 240-host partitioned fleet, is the reference; its pass also
// checks that every experiment reproduces its claim (C7 by wiping all
// 30,000 workstations), the provenance forests and the rendered
// EXPERIMENTS.md. Every row must then reproduce each experiment's
// payload bytes. Under -short it leaves out C5 and the 30,000-host C7,
// so it can be the core -race target.
func TestExperimentDeterminism(t *testing.T) {
	registerTempExperiment(t, "ZZ-fleet", reducedPartitionedRunner)
	ids := ExperimentIDs()
	if testing.Short() {
		ids = slices.DeleteFunc(ids, func(id string) bool { return id == "C5" || id == "C7" })
	}
	ref := RunExperiments(append(ids, "ZZ-fleet"), 1, 1)
	refs := make(map[string]RunReport, len(ref))
	for _, rep := range ref {
		if rep.Err != nil {
			t.Fatalf("reference run: %v", rep.Err)
		}
		if !rep.Result.Pass {
			t.Errorf("%s did not reproduce:\n%s", rep.ID, rep.Result.Render())
		}
		refs[rep.ID] = rep
		checkForest(t, rep)
	}
	if c7, ok := refs["C7"]; ok {
		if got := c7.Result.MustMetric("wiped_unbootable"); got != 30000 {
			t.Errorf("C7 wiped %v workstations, want 30000", got)
		}
	}
	if !testing.Short() {
		committed, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
		if err != nil {
			t.Fatal(err)
		}
		if RenderExperimentsMarkdown(ref[:len(ids)], 1) != string(committed) {
			t.Error("EXPERIMENTS.md drifted from the reference run; regenerate with\n" +
				"  go run ./cmd/cyberlab -report -o EXPERIMENTS.md")
		}
	}

	for _, row := range matrixRows {
		var c matrixCell
		names := make([]string, len(row))
		for i, m := range row {
			m.apply(&c)
			names[i] = m.name
		}
		c.name = strings.Join(names, "/")
		got, want := c.run(t, ref)
		for i, rep := range got {
			if outcomeFingerprint(rep) != outcomeFingerprint(want[i]) {
				diff := "bytes differ from the sequential zero-Env reference"
				if rep.Err != nil {
					diff = rep.Err.Error()
				}
				t.Errorf("%s under %s: %s%s", rep.ID, c.name, diff, attribute(t, refs[rep.ID], row))
			}
		}
	}
}

// checkForest holds a reference trace to the provenance contract: a
// valid forest with no orphans and one node per span. The flagship
// campaigns (and T1, whose multi-kernel capture remaps spans) must
// yield infection trees.
func checkForest(t *testing.T, rep RunReport) {
	t.Helper()
	f := provenance.Build(rep.Result.Events)
	for _, issue := range f.Validate() {
		t.Errorf("%s: invalid forest: %s", rep.ID, issue)
	}
	if len(f.Orphans) > 0 {
		t.Errorf("%s: %d orphan nodes", rep.ID, len(f.Orphans))
	}
	spans := make(map[obs.Span]bool)
	for _, e := range rep.Result.Events {
		if e.Span != 0 {
			spans[e.Span] = true
		}
	}
	if len(spans) != len(f.Nodes) {
		t.Errorf("%s: span collision: %d distinct span IDs vs %d nodes", rep.ID, len(spans), len(f.Nodes))
	}
	if slices.Contains([]string{"F1", "C4", "C9", "T1"}, rep.ID) && len(f.Roots) == 0 {
		t.Errorf("%s: empty forest (%d events), want infection trees", rep.ID, len(rep.Result.Events))
	}
}

// attribute reruns one experiment under each of a row's modes alone and
// names the modes that move its bytes.
func attribute(t *testing.T, ref RunReport, row []matrixMode) string {
	if len(row) == 1 {
		return ""
	}
	var moved []string
	for _, m := range row {
		c := matrixCell{name: m.name}
		m.apply(&c)
		got, want := c.run(t, []RunReport{ref})
		if len(got) == 1 && outcomeFingerprint(got[0]) != outcomeFingerprint(want[0]) {
			moved = append(moved, m.name)
		}
	}
	if len(moved) == 0 {
		return "; no mode alone moves them"
	}
	return "; alone, " + strings.Join(moved, ", ") + " moves them"
}

// run executes the reference's experiments under the cell and returns
// each outcome next to the reference outcome it must equal.
func (c matrixCell) run(t *testing.T, ref []RunReport) (got, want []RunReport) {
	t.Helper()
	ids := make([]string, len(ref))
	for i, rep := range ref {
		ids[i] = rep.ID
	}
	if c.runstats {
		col := runstats.Enable()
		stop := col.StartProgress(io.Discard, time.Millisecond)
		defer func() {
			stop()
			runstats.Disable()
			recorded := make(map[string]bool)
			for _, e := range col.Manifest().Experiments {
				recorded[e.ID] = e.Ok
			}
			for _, id := range ids {
				if !recorded[id] {
					t.Errorf("%s under %s: the runstats collector did not record it passing", id, c.name)
				}
			}
		}()
	}
	if c.fork {
		return c.forkAll(t, ref)
	}
	opts := RunOptions{Env: &c.env, Workers: c.workers, MaxRetries: c.retries}
	if !c.journal {
		return RunExperimentsOpts(ids, 1, opts), ref
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, &c.env)
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = j
	RunExperimentsOpts(ids, 1, opts)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	other := c.otherWidth()
	if j, err = OpenJournal(path, true, 1, &other); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got = RunExperimentsOpts(ids, 1, RunOptions{Env: &other, Workers: 2, Journal: j})
	for _, rep := range got {
		if !rep.FromJournal {
			t.Errorf("%s under %s: re-run on resume instead of served from the journal", rep.ID, c.name)
		}
	}
	return got, ref
}

// otherWidth is the cell's Env at another partition width, for the
// modes that replay a run: width 4, or 1 when the cell runs at 4.
func (c matrixCell) otherWidth() Env {
	other := c.env
	other.Partitions = 4
	if c.env.Partitions == 4 {
		other.Partitions = 1
	}
	return other
}

// forkAll checkpoints each reference stream at its vtime midpoint under
// the cell's Env and forks it at another partition width. The
// checkpoint's prefix must hash as the reference's does, the fork must
// verify it, and the fork's result must equal the reference's cut to
// the same tail. Muted experiments keep no stream and are left out.
func (c matrixCell) forkAll(t *testing.T, ref []RunReport) (got, want []RunReport) {
	t.Helper()
	other := c.otherWidth()
	for _, r := range ref {
		events := r.Result.Events
		if len(events) == 0 {
			continue
		}
		byAt := func(a, b obs.Event) int { return a.At.Compare(b.At) }
		lo, hi := slices.MinFunc(events, byAt).At, slices.MaxFunc(events, byAt).At
		mid := lo.Add(hi.Sub(lo) / 2)
		rep := RunReport{ID: r.ID, Seed: r.Seed}
		cp, err := CaptureCheckpoint(&c.env, r.ID, r.Seed, mid)
		if err == nil {
			if n, hash := tracePrefixHash(events, cp.VTime); n != cp.PrefixLen || hash != cp.PrefixHash {
				t.Errorf("%s under %s: checkpoint prefix (%d events) differs from the reference's (%d)",
					r.ID, c.name, cp.PrefixLen, n)
			}
			var fr *ForkResult
			if fr, err = Fork(&other, cp); err == nil {
				rep.Result = fr.Result
			}
		}
		rep.Err = err
		tail := *r.Result
		tail.Events = slices.DeleteFunc(slices.Clone(events), func(e obs.Event) bool { return !e.At.After(mid) })
		got = append(got, rep)
		want = append(want, RunReport{ID: r.ID, Seed: r.Seed, Result: &tail})
	}
	return got, want
}

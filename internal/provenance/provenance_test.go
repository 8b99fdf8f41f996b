package provenance

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

var t0 = time.Date(2012, 8, 15, 8, 0, 0, 0, time.UTC)

// fixture is a two-experiment stream: a Shamoon-like spread tree under
// F9 and a single root under F8, plus span-free noise and in-episode
// detail records.
func fixture() []obs.Event {
	ev := func(seq uint64, dt time.Duration, cat, actor, msg string, span, parent obs.Span, tags ...obs.Tag) obs.Event {
		return obs.Event{At: t0.Add(dt), Seq: seq, Cat: cat, Actor: actor, Msg: msg,
			Span: span, Parent: parent, Tags: tags}
	}
	return []obs.Event{
		ev(1, 0, "infect", "WS-1", "installed", 1, 0,
			obs.T("exp", "F9"), obs.T("vector", "root")),
		ev(2, time.Minute, "exec", "WS-1", "dropper copied", 1, 0, obs.T("exp", "F9")),
		ev(3, 2*time.Hour, "infect", "WS-2", "installed", 2, 1,
			obs.T("exp", "F9"), obs.T("vector", "psexec")),
		ev(4, 2*time.Hour, "infect", "WS-3", "installed", 3, 1,
			obs.T("exp", "F9"), obs.T("vector", "psexec")),
		ev(5, 4*time.Hour, "wipe", "WS-2", "wiper detonated", 4, 2,
			obs.T("exp", "F9"), obs.T("vector", "trigger-timer")),
		ev(6, 4*time.Hour, "network", "net", "span-free noise", 0, 0, obs.T("exp", "F9")),
		// A second experiment sharing span numbers 1..2: must not collide.
		ev(1, 0, "infect", "HOST-A", "installed", 1, 0,
			obs.T("exp", "F8"), obs.T("vector", "root")),
		ev(2, time.Hour, "exec", "HOST-A", `payload "quoted"`, 2, 1,
			obs.T("exp", "F8"), obs.T("vector", "keyed-payload")),
	}
}

func TestBuildShape(t *testing.T) {
	f := Build(fixture())
	if len(f.Nodes) != 6 {
		t.Fatalf("nodes = %d, want 6", len(f.Nodes))
	}
	if len(f.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(f.Roots))
	}
	if len(f.Orphans) != 0 {
		t.Fatalf("orphans = %v", f.Orphans)
	}
	if issues := f.Validate(); len(issues) != 0 {
		t.Fatalf("valid fixture reported issues: %v", issues)
	}
	// Roots sort by experiment tag.
	if f.Roots[0].ID.Exp != "F8" || f.Roots[1].ID.Exp != "F9" {
		t.Fatalf("root order: %s, %s", f.Roots[0].ID, f.Roots[1].ID)
	}
	root := f.Node(NodeID{Exp: "F9", Span: 1})
	if root == nil || len(root.Children) != 2 {
		t.Fatalf("F9 root children = %+v", root)
	}
	if root.Events != 2 {
		t.Fatalf("root carries %d events, want opener + detail", root.Events)
	}
	wiper := f.Node(NodeID{Exp: "F9", Span: 4})
	if wiper.Depth() != 2 || wiper.Up.ID.Span != 2 {
		t.Fatalf("wiper depth=%d parent=%v", wiper.Depth(), wiper.Up.ID)
	}
}

func TestChain(t *testing.T) {
	f := Build(fixture())
	chain := f.Chain(NodeID{Exp: "F9", Span: 4})
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want root->hop->wipe", len(chain))
	}
	want := []obs.Span{1, 2, 4}
	for i, n := range chain {
		if n.ID.Span != want[i] {
			t.Fatalf("chain[%d] = %s, want s%d", i, n.ID, want[i])
		}
	}
	if f.Chain(NodeID{Exp: "F9", Span: 99}) != nil {
		t.Fatal("unknown span produced a chain")
	}
}

func TestStats(t *testing.T) {
	f := Build(fixture())
	s := f.Stats()
	if s.Nodes != 6 || s.Roots != 2 || s.Orphans != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDepth != 2 || s.MaxFanOut != 2 {
		t.Fatalf("depth/fanout = %d/%d, want 2/2", s.MaxDepth, s.MaxFanOut)
	}
	if s.Vectors["psexec"] != 2 || s.Vectors["root"] != 2 {
		t.Fatalf("vectors = %v", s.Vectors)
	}
	if len(s.HopTimes) != 2 || s.HopTimes[0] != time.Hour || s.HopTimes[1] != 4*time.Hour {
		t.Fatalf("hop times = %v", s.HopTimes)
	}
	if s.Total != 8 || s.Spanned != 7 {
		t.Fatalf("total/spanned = %d/%d", s.Total, s.Spanned)
	}
}

func TestValidateFlagsViolations(t *testing.T) {
	events := []obs.Event{
		// Parent 9 never opens.
		{At: t0, Seq: 1, Cat: "infect", Actor: "a", Msg: "m", Span: 10, Parent: 9},
		// Child opens before its parent.
		{At: t0.Add(time.Hour), Seq: 2, Cat: "infect", Actor: "b", Msg: "m", Span: 11},
		{At: t0, Seq: 3, Cat: "infect", Actor: "c", Msg: "m", Span: 12, Parent: 11},
		// Parent allocated after the child (impossible under kernel
		// allocation order).
		{At: t0, Seq: 4, Cat: "infect", Actor: "d", Msg: "m", Span: 5, Parent: 13},
		{At: t0, Seq: 5, Cat: "infect", Actor: "e", Msg: "m", Span: 13},
	}
	f := Build(events)
	issues := f.Validate()
	if len(issues) != 3 {
		t.Fatalf("issues = %v, want 3", issues)
	}
	// s10's parent is missing and s5's is allocated after it: neither links.
	if len(f.Orphans) != 2 {
		t.Fatalf("orphans = %d, want 2", len(f.Orphans))
	}
}

// TestCyclicParentsTerminate builds a self-parented span and a two-span
// cycle. Parents that do not precede their child are not linked, so every
// walk returns, and Validate still reports each cycle.
func TestCyclicParentsTerminate(t *testing.T) {
	events := []obs.Event{
		{At: t0, Seq: 1, Cat: "x", Actor: "a", Msg: "self", Span: 5, Parent: 5},
		{At: t0, Seq: 2, Cat: "x", Actor: "b", Msg: "pair", Span: 3, Parent: 4},
		{At: t0, Seq: 3, Cat: "x", Actor: "c", Msg: "pair", Span: 4, Parent: 3},
	}
	f := Build(events)
	for _, span := range []obs.Span{5, 3, 4} {
		id := NodeID{Span: span}
		if chain := f.Chain(id); len(chain) == 0 || chain[len(chain)-1].ID != id {
			t.Fatalf("Chain(%s) = %v", id, chain)
		}
		_ = f.Node(id).Depth()
	}
	if d := f.Node(NodeID{Span: 4}).Depth(); d != 1 {
		t.Fatalf("s4 depth = %d, want 1 under s3", d)
	}
	if len(f.Orphans) != 2 || len(f.Roots) != 0 {
		t.Fatalf("orphans = %d, roots = %d, want 2 orphans (s3, s5) and no roots", len(f.Orphans), len(f.Roots))
	}
	if s := f.Stats(); s.Nodes != 3 || s.Orphans != 2 {
		t.Fatalf("stats = %+v", s)
	}
	var buf bytes.Buffer
	if err := f.Text(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f.DOT(&buf); err != nil {
		t.Fatal(err)
	}
	issues := f.Validate()
	want := []string{"s5: parent span 5 not allocated before it", "s3: parent span 4 not allocated before it"}
	if !reflect.DeepEqual(issues, want) {
		t.Fatalf("issues = %q, want %q", issues, want)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestDOTGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Build(fixture()).DOT(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.dot", buf.Bytes())
}

func TestTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Build(fixture()).Text(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.txt", buf.Bytes())
}

func TestRenderDeterministic(t *testing.T) {
	// Map iteration must never leak into either renderer.
	var first []byte
	for i := 0; i < 20; i++ {
		var dot, txt bytes.Buffer
		f := Build(fixture())
		if err := f.DOT(&dot); err != nil {
			t.Fatal(err)
		}
		if err := f.Text(&txt); err != nil {
			t.Fatal(err)
		}
		combined := append(dot.Bytes(), txt.Bytes()...)
		if first == nil {
			first = combined
		} else if !bytes.Equal(first, combined) {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
}

// refSorted is the node order as Build, Validate and DOT each computed it
// before Build kept one: every node of the map, ordered by sort.Slice.
// The order oracle.
func refSorted(f *Forest) []*Node {
	out := make([]*Node, 0, len(f.Nodes))
	for _, n := range f.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ID.Exp != b.ID.Exp {
			return a.ID.Exp < b.ID.Exp
		}
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.ID.Span < b.ID.Span
	})
	return out
}

// mergedStream is a time-merged capture of several kernels per
// experiment, as CaptureObsMerged exports it, with the experiments'
// records interleaved out of tag order. Kernels open episodes at the same
// instants, so nodes tie on At across kernels. Each kernel's spans are
// shifted past the ones before it, as capture does, while its sequence
// numbers run on their own: kernels in a pair share them, so only the
// span orders the pair, and later pairs start lower, so Seq orders pairs
// against span order. Seq values also repeat across experiments.
func mergedStream(exps []string, kernels, perKernel int) []obs.Event {
	rng := rand.New(rand.NewSource(3))
	var events []obs.Event
	for step := 0; step < perKernel; step++ {
		at := t0.Add(time.Duration(step/2) * time.Minute)
		for _, exp := range exps {
			for k := 0; k < kernels; k++ {
				base := obs.Span(k * perKernel)
				span, parent, vector := base+obs.Span(step)+1, obs.Span(0), "root"
				if step > 0 {
					parent, vector = base+obs.Span(rng.Intn(step))+1, "psexec"
				}
				host := fmt.Sprintf("WS-%d-%d", k, step)
				seq := uint64(step + 1 + 5*((kernels-1-k)/2))
				events = append(events, obs.Event{At: at, Seq: seq,
					Cat: "infect", Actor: host, Msg: "installed", Span: span, Parent: parent,
					Tags: []obs.Tag{obs.T("exp", exp), obs.T("vector", vector)}})
				if rng.Intn(2) == 0 {
					events = append(events, obs.Event{At: at, Seq: seq,
						Cat: "exec", Actor: host, Msg: "detail", Span: span, Tags: []obs.Tag{obs.T("exp", exp)}})
				}
			}
		}
	}
	return events
}

// TestSortedMatchesReference checks the order Build keeps against the
// reference sort on streams whose first-seen order is sorted, nearly
// sorted and reversed, and checks the roots and orphans follow it.
func TestSortedMatchesReference(t *testing.T) {
	merged := mergedStream([]string{"D2", "C7", "A1"}, 4, 60)
	reversed := slices.Clone(merged)
	slices.Reverse(reversed)
	violations := []obs.Event{
		{At: t0.Add(time.Hour), Seq: 2, Cat: "infect", Actor: "b", Msg: "m", Span: 11},
		{At: t0, Seq: 3, Cat: "infect", Actor: "c", Msg: "m", Span: 12, Parent: 11},
		{At: t0, Seq: 1, Cat: "infect", Actor: "a", Msg: "m", Span: 10, Parent: 9},
		{At: t0, Seq: 4, Cat: "infect", Actor: "d", Msg: "m", Span: 5, Parent: 13},
		{At: t0, Seq: 5, Cat: "infect", Actor: "e", Msg: "m", Span: 13},
	}
	for name, events := range map[string][]obs.Event{
		"fixture": fixture(), "merged": merged, "reversed": reversed, "violations": violations,
	} {
		f := Build(events)
		want := refSorted(f)
		if !slices.Equal(f.order, want) {
			t.Fatalf("%s: Build's node order differs from the reference sort", name)
		}
		var roots, orphans []*Node
		for _, n := range want {
			switch {
			case n.Parent == 0:
				roots = append(roots, n)
			case n.Up == nil:
				orphans = append(orphans, n)
			}
		}
		if !slices.Equal(f.Roots, roots) || !slices.Equal(f.Orphans, orphans) {
			t.Fatalf("%s: roots or orphans are out of the reference order", name)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	// A 4096-node spread tree with fan-out 8 plus per-node detail events.
	var tree []obs.Event
	seq := uint64(0)
	emit := func(cat, actor, msg string, span, parent obs.Span, tags ...obs.Tag) {
		seq++
		tree = append(tree, obs.Event{
			At: t0.Add(time.Duration(seq) * time.Second), Seq: seq,
			Cat: cat, Actor: actor, Msg: msg, Span: span, Parent: parent, Tags: tags,
		})
	}
	for s := obs.Span(1); s <= 4096; s++ {
		parent := s / 8
		vector := "psexec"
		if parent == 0 {
			vector = "root"
		}
		emit("infect", fmt.Sprintf("WS-%d", s), "installed", s, parent,
			obs.T("exp", "C7"), obs.T("vector", vector))
		emit("exec", fmt.Sprintf("WS-%d", s), "detail", s, 0, obs.T("exp", "C7"))
	}
	for _, c := range []struct {
		name   string
		events []obs.Event
		nodes  int
	}{
		{"tree", tree, 4096},
		{"merged", mergedStream([]string{"D2", "C7"}, 6, 700), 2 * 6 * 700},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if f := Build(c.events); len(f.Nodes) != c.nodes {
					b.Fatalf("nodes = %d", len(f.Nodes))
				}
			}
		})
	}
}

func BenchmarkValidate(b *testing.B) {
	f := Build(mergedStream([]string{"D2", "C7"}, 6, 700))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if issues := f.Validate(); len(issues) != 0 {
			b.Fatal(issues[0])
		}
	}
}

func BenchmarkStats(b *testing.B) {
	f := Build(fixture())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Stats()
	}
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in   string
		want []uint64
		err  bool
	}{
		{in: "1..4", want: []uint64{1, 2, 3, 4}},
		{in: "7..7", want: []uint64{7}},
		{in: "3,1,3", want: []uint64{3, 1, 3}},
		{in: " 5 , 6 ", want: []uint64{5, 6}},
		{in: "4..2", err: true},
		{in: "a..b", err: true},
		{in: "1..999999999", err: true},
		{in: "", err: true},
		{in: "1,x", err: true},
	}
	for _, c := range cases {
		got, err := parseSeeds(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseSeeds(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSeeds(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseSeeds(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("parseSeeds(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSeedSweepSingleExperiment(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "m.json")
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..3", "-parallel", "2", "-manifest", manifest}); err != nil {
		t.Fatalf("sweep F3: %v", err)
	}
	// The manifest holds one entry per (experiment, seed) run.
	m := readManifest(t, manifest)
	seen := make(map[uint64]bool)
	for _, e := range m.Experiments {
		if e.ID != "F3" || !e.Ok {
			t.Fatalf("sweep manifest entry %+v, want a passing F3", e)
		}
		seen[e.Seed] = true
	}
	if len(m.Experiments) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("sweep manifest experiments = %+v, want F3 at seeds 1, 2 and 3", m.Experiments)
	}
}

func TestBadParallelValue(t *testing.T) {
	if err := run(context.Background(), []string{"-all", "-parallel", "0"}); err == nil {
		t.Fatal("-parallel 0 accepted")
	}
}

func TestBadSeedsValue(t *testing.T) {
	if err := run(context.Background(), []string{"-all", "-seeds", "9..1"}); err == nil {
		t.Fatal("bad -seeds range accepted")
	}
}

func TestListFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3", "-seed", "3"}); err != nil {
		t.Fatalf("run F3: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "ZZ"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNoModeIsError(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("no mode accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestStrayArgumentRejected: every flag set rejects the first word left
// over after its flags and names it; a word that is no subcommand, such
// as profile, is one such word to the main run.
func TestStrayArgumentRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		word string
	}{
		{[]string{"-run", "F3", "-seed", "2", "stray"}, "stray"},
		{[]string{"bogus"}, "bogus"},
		{[]string{"profile", "-run", "F3"}, "profile"},
		{[]string{"detect", "-in", "x", "-o", "y", "extra"}, "extra"},
		{[]string{"checkpoint", "-run", "C1", "-at", "1h", "extra"}, "extra"},
		{[]string{"fork", "-from", "c1.checkpoint", "extra"}, "extra"},
		{[]string{"trace", "-in", "x", "extra"}, "extra"},
	} {
		want := fmt.Sprintf("unexpected argument %q", c.word)
		if err := run(context.Background(), c.args); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v = %v, want %s", c.args, err, want)
		}
	}
}

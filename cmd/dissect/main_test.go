package main

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func TestDissectAllSamples(t *testing.T) {
	for _, sample := range []string{
		"shamoon", "shamoon-driver", "stuxnet", "stuxnet-driver", "flame", "flame-update", "duqu", "gauss",
	} {
		if err := run([]string{"-sample", sample}); err != nil {
			t.Fatalf("dissect %s: %v", sample, err)
		}
	}
}

// TestDissectSampleRuleHits pins which disclosure rules fire on each
// sample, as the dissection's yara line reports them.
func TestDissectSampleRuleHits(t *testing.T) {
	rules, err := analysis.CompileDisclosureRules()
	if err != nil {
		t.Fatal(err)
	}
	for sample, want := range map[string][]string{
		"shamoon":        {"Shamoon_Dropper"},
		"shamoon-driver": nil,
		"stuxnet":        {"Stuxnet_Main"},
		"stuxnet-driver": {"Stuxnet_Rootkit_Driver"},
		"flame":          {"Flame_MainModule"},
		"flame-update":   nil,
		"duqu":           nil,
		"gauss":          nil,
	} {
		w, err := core.NewWorld(core.WorldConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		img, err := buildSample(w, sample)
		if err != nil {
			t.Fatalf("build %s: %v", sample, err)
		}
		an := &analysis.Analyzer{Store: w.PKI.BaseStore, Rules: rules}
		rep, err := an.Analyze(img, w.K.Now())
		if err != nil {
			t.Fatalf("analyze %s: %v", sample, err)
		}
		if !reflect.DeepEqual(rep.YaraHits, want) {
			t.Errorf("%s: rules fired %v, want %v", sample, rep.YaraHits, want)
		}
	}
}

func TestDissectCompare(t *testing.T) {
	if err := run([]string{"-compare"}); err != nil {
		t.Fatalf("dissect -compare: %v", err)
	}
}

func TestDissectIOCs(t *testing.T) {
	if err := run([]string{"-sample", "shamoon", "-iocs"}); err != nil {
		t.Fatalf("dissect -iocs: %v", err)
	}
}

func TestDissectUnknownSample(t *testing.T) {
	if err := run([]string{"-sample", "mystery"}); err == nil {
		t.Fatal("unknown sample accepted")
	}
}

// TestStrayArgumentRejected: a word left over after the flags is an
// error that names it, not silently dropped.
func TestStrayArgumentRejected(t *testing.T) {
	if err := run([]string{"-sample", "flame", "stray"}); err == nil || err.Error() != `unexpected argument "stray"` {
		t.Fatalf("stray argument = %v, want it named", err)
	}
}

package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/malware/shamoon"
)

// TestExperimentRegistryComplete checks the index matches DESIGN.md:
// 35 unique listed IDs that all resolve, plus the hidden X1 self-test,
// which resolves but is never listed.
func TestExperimentRegistryComplete(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 35 {
		t.Fatalf("experiments = %d, want 35", len(ids))
	}
	seen := make(map[string]bool)
	for _, e := range experiments {
		if seen[e.id] {
			t.Fatalf("experiment ID %s registered twice", e.id)
		}
		seen[e.id] = true
	}
	for _, id := range ids {
		if run, ok := LookupExperiment(id); !ok || run == nil {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if run, ok := LookupExperiment("X1"); !ok || run == nil {
		t.Fatal("hidden X1 self-test does not resolve")
	}
	if slices.Contains(ids, "X1") {
		t.Fatal("hidden X1 self-test is listed")
	}
	if _, ok := LookupExperiment("ZZ-unknown"); ok {
		t.Fatal("unknown ID resolved")
	}
}

// Each figure/claim experiment must pass with the default seed. These are
// the primary reproduction tests.

func runExperiment(t *testing.T, id string) *Result {
	t.Helper()
	run, ok := LookupExperiment(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := run(nil, 1)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if !res.Pass {
		t.Fatalf("%s did not reproduce:\n%s", id, res.Render())
	}
	return res
}

func TestF1StuxnetOperation(t *testing.T) {
	res := runExperiment(t, "F1")
	if res.MustMetric("centrifuges_destroyed") == 0 {
		t.Fatal("no destruction")
	}
}

func TestF2WPADMitm(t *testing.T) {
	res := runExperiment(t, "F2")
	if res.MustMetric("infected_via_fake_update") != 9 {
		t.Fatalf("update infections = %v", res.MustMetric("infected_via_fake_update"))
	}
}

func TestF3CertForging(t *testing.T) { runExperiment(t, "F3") }

func TestF4CnCPlatform(t *testing.T) {
	res := runExperiment(t, "F4")
	if res.MustMetric("registered_domains") != 80 || res.MustMetric("distinct_server_ips") != 22 {
		t.Fatalf("platform shape wrong: %s", res.Render())
	}
}

func TestF5CnCServer(t *testing.T) { runExperiment(t, "F5") }

func TestF6ShamoonComponents(t *testing.T) {
	res := runExperiment(t, "F6")
	if res.MustMetric("encrypted_resources") != 3 {
		t.Fatalf("resources = %v", res.MustMetric("encrypted_resources"))
	}
}

func TestC1ZeroDays(t *testing.T) {
	res := runExperiment(t, "C1")
	if res.MustMetric("distinct_zero_days") != 4 {
		t.Fatalf("zero days = %v", res.MustMetric("distinct_zero_days"))
	}
}

func TestC2Centrifuge(t *testing.T) { runExperiment(t, "C2") }
func TestC3Targeting(t *testing.T)  { runExperiment(t, "C3") }
func TestC4FlameSize(t *testing.T)  { runExperiment(t, "C4") }
func TestC6Suicide(t *testing.T)    { runExperiment(t, "C6") }

// TestExperimentDeterminism's reference pass checks the full 30,000-host
// C7; this 2,000-host fleet has the same mechanics and runs under -short.
func TestC7AramcoScaleReduced(t *testing.T) {
	res, err := RunAramcoFleet(1, C7Options(2000))
	if err != nil {
		t.Fatalf("C7: %v", err)
	}
	if !res.Pass {
		t.Fatalf("C7 did not reproduce:\n%s", res.Render())
	}
	if res.MustMetric("wiped_unbootable") != 2000 {
		t.Fatalf("wiped = %v", res.MustMetric("wiped_unbootable"))
	}
}

func TestC8JPEGBug(t *testing.T) {
	res := runExperiment(t, "C8")
	if res.MustMetric("buggy_overwrite_bytes") != shamoon.JPEGFragmentLen {
		t.Fatalf("fragment = %v", res.MustMetric("buggy_overwrite_bytes"))
	}
}

func TestC9Reporter(t *testing.T)   { runExperiment(t, "C9") }
func TestC10AirGap(t *testing.T)    { runExperiment(t, "C10") }
func TestC11Bluetooth(t *testing.T) { runExperiment(t, "C11") }

func TestT1Trends(t *testing.T) {
	res := runExperiment(t, "T1")
	if res.MustMetric("shamoon_suiciding") != 0 {
		t.Fatal("shamoon should not score on suiciding")
	}
}

func TestA1AblationPatching(t *testing.T) { runExperiment(t, "A1") }
func TestA2AblationAdvisory(t *testing.T) { runExperiment(t, "A2") }

func TestA3EpidemicCurve(t *testing.T) {
	res := runExperiment(t, "A3")
	if res.MustMetric("hours_to_50pct") >= res.MustMetric("hours_to_100pct") {
		t.Fatalf("curve shape wrong:\n%s", res.Render())
	}
}

func TestE1DuquTargeting(t *testing.T) {
	res := runExperiment(t, "E1")
	if res.MustMetric("distinct_victim_modules") != 3 {
		t.Fatalf("modules = %v", res.MustMetric("distinct_victim_modules"))
	}
}

func TestE3Lineage(t *testing.T) {
	res := runExperiment(t, "E3")
	if res.MustMetric("sim_stuxnet_duqu") <= res.MustMetric("sim_stuxnet_shamoon") {
		t.Fatalf("lineage shape wrong:\n%s", res.Render())
	}
}

func TestE4Sinkhole(t *testing.T) {
	res := runExperiment(t, "E4")
	if res.MustMetric("sinkhole_checkins_fl") != 0 {
		t.Fatalf("FL clients survived the suicide:\n%s", res.Render())
	}
}

func TestE2GaussGodel(t *testing.T) {
	res := runExperiment(t, "E2")
	if res.MustMetric("godel_detonations") != 1 {
		t.Fatalf("detonations = %v", res.MustMetric("godel_detonations"))
	}
}

func TestResultRender(t *testing.T) {
	res := &Result{ID: "X", Title: "test", Paper: "paper says", Pass: true}
	res.metric("answer", 42, "units")
	res.notef("a note %d", 1)
	out := res.Render()
	for _, want := range []string{"[X]", "PASS", "paper says", "answer", "42", "a note 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, ok := res.Metric("missing"); ok {
		t.Fatal("phantom metric")
	}
}

func TestWorldAdvisoryAffectsAllHosts(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 3})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	lan := w.NewLAN("l", "10.0.0", false)
	h1 := w.AddHost(lan, "H1")
	h2 := w.AddHost(lan, "H2")
	w.IssueAdvisory()
	for _, h := range []*host.Host{h1, h2} {
		if !h.CertStore.IsDistrusted(w.PKI.Licensing.Cert.Serial) {
			t.Fatalf("%s store not updated", h.Name)
		}
	}
	if w.Host("H1") != h1 || w.Host("GHOST") != nil {
		t.Fatal("World.Host lookup broken")
	}
	_ = time.Second
}

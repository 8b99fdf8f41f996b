package core

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestResilienceProfileSelection: Env parsing selects a named fault
// profile and mix, and rejects an unknown name without touching the
// Env — not even the half of the key that did parse.
func TestResilienceProfileSelection(t *testing.T) {
	var env Env
	if got := env.Key(); got.Faults != faults.DefaultProfile || got.Activity != "" {
		t.Fatalf("zero Env key = %+v, want the default profile and a silent mix", got)
	}
	want := EnvKey{Faults: "chaos", Activity: "enterprise"}
	if err := env.ParseKey(want); err != nil {
		t.Fatalf("ParseKey(%+v): %v", want, err)
	}
	if env.Key() != want || env.profile().Name != "chaos" {
		t.Fatalf("env key = %+v, want %+v", env.Key(), want)
	}
	for _, bad := range []EnvKey{{Faults: "bogus"}, {Faults: "none", Activity: "bogus"}} {
		if err := env.ParseKey(bad); err == nil {
			t.Fatalf("ParseKey(%+v) did not fail", bad)
		}
		if env.Key() != want {
			t.Fatalf("failed ParseKey(%+v) mutated the env to %+v", bad, env.Key())
		}
	}
}

// TestResilienceR1P2PConvergence asserts the acceptance criterion: with
// both futbol domains seized, ≥90% of the infected fleet must converge on
// v2 purely over the LAN P2P path, each sync attributed to the takedown.
func TestResilienceR1P2PConvergence(t *testing.T) {
	res := runExperiment(t, "R1")
	if share := res.MustMetric("v2_share"); share < 0.9 {
		t.Fatalf("v2_share = %g, want >= 0.9", share)
	}
	if res.MustMetric("p2p_syncs") == 0 {
		t.Fatal("no P2P syncs recorded under takedown")
	}
	if res.MustMetric("domains_taken_down") != 2 {
		t.Fatalf("domains_taken_down = %g", res.MustMetric("domains_taken_down"))
	}
	// Every p2p sync span's parent must be the takedown intervention.
	var syncs, attributed int
	for _, e := range res.Events {
		if v, _ := e.Get("vector"); v == "p2p-lan" {
			syncs++
			if e.Parent != 0 {
				attributed++
			}
		}
	}
	if syncs == 0 || attributed != syncs {
		t.Fatalf("p2p sync attribution: %d/%d spans carry a causal parent", attributed, syncs)
	}
}

// TestResilienceR2SinkholeCensus asserts the acceptance criterion: the
// sinkhole census records check-ins from every surviving client.
func TestResilienceR2SinkholeCensus(t *testing.T) {
	res := runExperiment(t, "R2")
	if res.MustMetric("sinkhole_checkins") == 0 {
		t.Fatal("sinkhole recorded no check-ins")
	}
	if res.MustMetric("sinkhole_distinct_clients") != res.MustMetric("agents_alive") {
		t.Fatalf("census saw %g clients, %g agents alive",
			res.MustMetric("sinkhole_distinct_clients"), res.MustMetric("agents_alive"))
	}
	if res.MustMetric("domains_reregistered") == 0 {
		t.Fatal("operators never re-registered replacement domains")
	}
}

func TestResilienceR3WipeNeedsNoCnC(t *testing.T) {
	res := runExperiment(t, "R3")
	if res.MustMetric("wipe_reports_home") != 0 {
		t.Fatal("reports crossed a total blackout")
	}
	if res.MustMetric("wiped_hosts") != res.MustMetric("infected_hosts") {
		t.Fatal("blackout recalled the wiper")
	}
}

func TestResilienceR4CrashAndPatch(t *testing.T) {
	res := runExperiment(t, "R4")
	if res.MustMetric("wave_a_persisted") != res.MustMetric("wave_a_infected") {
		t.Fatal("crash cycles broke driver/registry persistence")
	}
	if res.MustMetric("wave_b_infected") != 0 {
		t.Fatal("worm crossed the MS10-061 patch gate")
	}
}

func TestResilienceR5AVAttrition(t *testing.T) {
	res := runExperiment(t, "R5")
	if res.MustMetric("agents_remediated") < 1 {
		t.Fatal("no agent died to quarantine + reboot")
	}
	if res.MustMetric("agents_alive") >= res.MustMetric("agents_start") {
		t.Fatal("AV attrition killed nobody")
	}
}

// TestResilienceBaselineProfile runs the whole series with faults
// disabled: every experiment must still pass via its baseline branch, and
// the campaigns must emit zero fault-category interventions.
func TestResilienceBaselineProfile(t *testing.T) {
	none := &Env{Faults: faults.Profiles["none"]}
	for _, id := range []string{"R1", "R2", "R3", "R4", "R5"} {
		rep := runOne(none, id, 1)
		if rep.Err != nil || !rep.Result.Pass {
			t.Fatalf("%s did not reproduce under the none profile (err %v)", id, rep.Err)
		}
		if v, ok := rep.Result.Obs.Counters["faults.domain.takedown"]; ok && v > 0 {
			t.Fatalf("%s: baseline run performed %g takedowns", id, v)
		}
	}
}

// TestResilienceSeriesParallelDeterminism asserts the acceptance
// criterion: the R-series report, metrics and event stream are
// byte-identical at any worker count for a fixed seed and profile.
func TestResilienceSeriesParallelDeterminism(t *testing.T) {
	ids := []string{"R1", "R2", "R3", "R4", "R5"}
	serialize := func(reports []RunReport) []byte {
		t.Helper()
		var buf bytes.Buffer
		for _, rep := range reports {
			if rep.Err != nil {
				t.Fatalf("%s: %v", rep.ID, rep.Err)
			}
			buf.WriteString(rep.Result.Render())
			snap, err := rep.Result.Obs.JSON()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", rep.ID, err)
			}
			buf.Write(snap)
			if err := obs.WriteJSONL(&buf, rep.Result.Events); err != nil {
				t.Fatalf("%s: events: %v", rep.ID, err)
			}
		}
		return buf.Bytes()
	}
	want := serialize(RunExperiments(ids, 1, 1))
	for _, workers := range []int{4, 8} {
		if got := serialize(RunExperiments(ids, 1, workers)); !bytes.Equal(got, want) {
			t.Fatalf("R-series output with %d workers differs from sequential run", workers)
		}
	}
}

package detect

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
)

var t0 = time.Date(2012, 4, 23, 6, 0, 0, 0, time.UTC)

func ev(at time.Time, seq uint64, cat, actor, msg string, tags ...obs.Tag) obs.Event {
	return obs.Event{At: at, Seq: seq, Cat: cat, Actor: actor, Msg: msg, Tags: tags}
}

func TestMatchRuleFires(t *testing.T) {
	rules := []Rule{{
		Name:  "webshell-write",
		Match: &Predicate{Cat: "exploit", MsgContains: "webshell written"},
	}}
	alerts, err := Replay([]obs.Event{
		ev(t0, 1, "exec", "IIS-01", "exec w3wp.exe (pid 1001)"),
		ev(t0.Add(time.Minute), 2, "exploit", "IIS-01", "webshell written: UpdateChecker.aspx"),
	}, rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Rule != "webshell-write" || alerts[0].Actor != "IIS-01" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestPredicateTagMatch(t *testing.T) {
	p := Predicate{Cat: "exec", Tags: []TagMatch{{K: "image", Contains: ".aspx"}}}
	if !p.Match(ev(t0, 1, "exec", "h", "m", obs.T("image", "UpdateChecker.aspx"))) {
		t.Fatal("tag contains did not match")
	}
	if p.Match(ev(t0, 1, "exec", "h", "m", obs.T("image", "svchost.exe"))) {
		t.Fatal("matched wrong image")
	}
	if p.Match(ev(t0, 1, "exec", "h", "m")) {
		t.Fatal("matched event without the tag")
	}
	exact := Predicate{Tags: []TagMatch{{K: "user", V: "svc-backup"}}}
	if exact.Match(ev(t0, 1, "network", "h", "m", obs.T("user", "svc-backup2"))) {
		t.Fatal("exact tag value matched a superstring")
	}
}

func TestThresholdSlidingWindow(t *testing.T) {
	rules := []Rule{{
		Name: "psexec-fanout",
		Threshold: &Threshold{
			Of: Predicate{Cat: "spread", MsgContains: "psexec"}, Count: 3,
			Window: 6 * time.Hour, PerActor: true,
		},
	}}
	// Two hits, a long gap (evicting both), then three inside the window.
	events := []obs.Event{
		ev(t0, 1, "spread", "WS-01", "psexec \\\\WS-02 x"),
		ev(t0.Add(time.Hour), 2, "spread", "WS-01", "psexec \\\\WS-03 x"),
		ev(t0.Add(20*time.Hour), 3, "spread", "WS-01", "psexec \\\\WS-04 x"),
		ev(t0.Add(21*time.Hour), 4, "spread", "WS-01", "psexec \\\\WS-05 x"),
		// A different actor's hits must not count toward WS-01's window.
		ev(t0.Add(21*time.Hour+time.Minute), 5, "spread", "WS-09", "psexec \\\\WS-05 x"),
		ev(t0.Add(22*time.Hour), 6, "spread", "WS-01", "psexec \\\\WS-06 x"),
	}
	alerts, err := Replay(events, rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 {
		t.Fatalf("want exactly 1 alert, got %+v", alerts)
	}
	if !alerts[0].At.Equal(t0.Add(22 * time.Hour)) {
		t.Fatalf("fired at %v, want the third in-window hit", alerts[0].At)
	}
	// After firing, the window resets: two more hits stay silent.
	more := append(events,
		ev(t0.Add(23*time.Hour), 7, "spread", "WS-01", "psexec \\\\WS-07 x"),
		ev(t0.Add(24*time.Hour), 8, "spread", "WS-01", "psexec \\\\WS-08 x"),
	)
	alerts, _ = Replay(more, rules)
	if len(alerts) != 1 {
		t.Fatalf("window did not reset on fire: %+v", alerts)
	}
}

func TestSequenceOrderAndWindow(t *testing.T) {
	rules := []Rule{{
		Name: "kill-chain",
		Sequence: &Sequence{
			Steps: []Predicate{
				{Cat: "exploit", MsgContains: "webshell"},
				{Cat: "exec", MsgContains: "task registered"},
				{Cat: "spread", MsgContains: "psexec"},
			},
			Window: 72 * time.Hour, PerActor: true,
		},
	}}
	// Out-of-order steps never fire.
	alerts, err := Replay([]obs.Event{
		ev(t0, 1, "spread", "H", "psexec \\\\x y"),
		ev(t0.Add(time.Hour), 2, "exec", "H", "task registered: t"),
		ev(t0.Add(2*time.Hour), 3, "exploit", "H", "webshell written"),
	}, rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("out-of-order sequence fired: %+v", alerts)
	}
	// In order, with noise interleaved, fires once at the final step.
	alerts, _ = Replay([]obs.Event{
		ev(t0, 1, "exploit", "H", "webshell written"),
		ev(t0.Add(time.Minute), 2, "exec", "H", "exec benign.exe (pid 1)"),
		ev(t0.Add(time.Hour), 3, "exec", "H", "task registered: t"),
		ev(t0.Add(2*time.Hour), 4, "spread", "H", "psexec \\\\x y"),
	}, rules)
	if len(alerts) != 1 || alerts[0].Rule != "kill-chain" {
		t.Fatalf("sequence did not fire: %+v", alerts)
	}
	// The window gates completion: a 100 h gap between first and last
	// step resets the chain.
	alerts, _ = Replay([]obs.Event{
		ev(t0, 1, "exploit", "H", "webshell written"),
		ev(t0.Add(time.Hour), 2, "exec", "H", "task registered: t"),
		ev(t0.Add(100*time.Hour), 3, "spread", "H", "psexec \\\\x y"),
	}, rules)
	if len(alerts) != 0 {
		t.Fatalf("expired sequence fired: %+v", alerts)
	}
}

func TestCooldownSuppresses(t *testing.T) {
	rules := []Rule{{
		Name:     "psexec-remote-exec",
		Match:    &Predicate{Cat: "spread", MsgContains: "psexec"},
		Cooldown: time.Hour,
	}}
	en, err := New(rules)
	if err != nil {
		t.Fatal(err)
	}
	en.Handle(ev(t0, 1, "spread", "H", "psexec \\\\a x"))
	en.Handle(ev(t0.Add(time.Minute), 2, "spread", "H", "psexec \\\\b x"))
	en.Handle(ev(t0.Add(2*time.Hour), 3, "spread", "H", "psexec \\\\c x"))
	if len(en.Alerts()) != 2 {
		t.Fatalf("cooldown math wrong: %+v", en.Alerts())
	}
	if en.Suppressed() != 1 {
		t.Fatalf("suppressed = %d, want 1", en.Suppressed())
	}
}

func TestRuleValidation(t *testing.T) {
	if _, err := New([]Rule{{Name: "none"}}); err == nil {
		t.Fatal("rule with no primitive accepted")
	}
	if _, err := New([]Rule{{
		Name:  "both",
		Match: &Predicate{Cat: "x"}, Threshold: &Threshold{Of: Predicate{}, Count: 1, Window: time.Hour},
	}}); err == nil {
		t.Fatal("rule with two primitives accepted")
	}
	if _, err := New([]Rule{{Name: "badseq", Sequence: &Sequence{Steps: []Predicate{{Cat: "x"}}, Window: time.Hour}}}); err == nil {
		t.Fatal("single-step sequence accepted")
	}
}

// TestLiveAlertSpansJoinProvenance drives a kernel with the engine
// attached and checks every alert's span validates as a child of the
// event that tripped the rule.
func TestLiveAlertSpansJoinProvenance(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(7))
	en, err := Attach(k, []Rule{{
		Name:  "infect-any",
		Match: &Predicate{Cat: "infect"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(time.Hour, "compromise", func() {
		sp := k.OpenSpan(sim.CatInfect, "WS-01", "implant installed", "usb-lnk")
		k.WithCause(sim.Cause{Span: sp}, func() {
			k.Trace().Emit(k.Now(), sim.CatExec, "WS-01", "exec payload.exe (pid 7)")
		})
	})
	k.Drain(100)

	alerts := en.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	a := alerts[0]
	if a.Span == 0 || a.Cause == 0 {
		t.Fatalf("live alert missing spans: %+v", a)
	}
	f := provenance.Build(k.Trace().Events())
	if issues := f.Validate(); len(issues) != 0 {
		t.Fatalf("forest invalid: %v", issues)
	}
	n := f.Node(provenance.NodeID{Span: a.Span})
	if n == nil {
		t.Fatal("alert span missing from forest")
	}
	if n.Parent != a.Cause || n.Up == nil || n.Up.ID.Span != a.Cause {
		t.Fatalf("alert span not parented to its cause: node=%+v", n)
	}
	if n.Vector != "detect" {
		t.Fatalf("alert edge vector = %q, want detect", n.Vector)
	}
	if got := k.Metrics().Counter("detect.rule.infect-any.fire").Value(); got != 1 {
		t.Fatalf("per-rule counter = %g", got)
	}
}

// TestReplayMatchesLive exports the live trace and replays it offline:
// the two alert streams must agree on everything but the live-only span.
func TestReplayMatchesLive(t *testing.T) {
	run := func() (*sim.Kernel, *Engine) {
		k := sim.NewKernel(sim.WithSeed(3))
		en, err := Attach(k, CNIRulePack())
		if err != nil {
			t.Fatal(err)
		}
		k.Schedule(time.Hour, "drop", func() {
			sp := k.OpenSpan(sim.CatExploit, "IIS-01", "webshell written: UpdateChecker.aspx", "web-upload")
			k.WithCause(sim.Cause{Span: sp}, func() {
				k.Trace().Emit(k.Now(), sim.CatExec, "IIS-01", "task registered: Updater07",
					obs.T("task", "Updater07"), obs.T("image", `C:\Windows\Temp\up.exe`))
				for i := 0; i < 4; i++ {
					k.Trace().Emit(k.Now().Add(time.Duration(i)*time.Minute), sim.CatSpread, "IIS-01",
						"psexec \\\\WS-0x path", obs.T("target", "WS-0x"))
				}
			})
		})
		k.Drain(100)
		return k, en
	}
	k, live := run()

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, k.Trace().Events()); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Replay(parsed, CNIRulePack())
	if err != nil {
		t.Fatal(err)
	}
	if len(offline) != len(live.Alerts()) {
		t.Fatalf("offline %d alerts, live %d", len(offline), len(live.Alerts()))
	}
	for i, la := range live.Alerts() {
		oa := offline[i]
		oa.Span = la.Span // live-only field
		if oa != la {
			t.Fatalf("alert %d: offline %+v live %+v", i, oa, la)
		}
	}
}

func TestWriteAlertsJSONLDeterministic(t *testing.T) {
	alerts := []Alert{
		{Rule: "r1", At: t0, Seq: 4, Actor: "H", Msg: "m", Cause: 2, Span: 9},
		{Rule: "r2", At: t0.Add(time.Hour), Seq: 7, Actor: "H2", Msg: "m2"},
	}
	var a, b bytes.Buffer
	if err := WriteAlertsJSONL(&a, alerts); err != nil {
		t.Fatal(err)
	}
	if err := WriteAlertsJSONL(&b, alerts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("alert export not deterministic")
	}
	parsed, err := obs.ParseJSONL(&a)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 || parsed[0].Msg != "alert: r1" || parsed[0].Parent != 2 {
		t.Fatalf("alert export shape: %+v", parsed)
	}
}

func TestCNIRulePackValid(t *testing.T) {
	if _, err := New(CNIRulePack()); err != nil {
		t.Fatal(err)
	}
	if len(CNIRulePack()) < 8 {
		t.Fatalf("rule pack has %d rules, want >= 8", len(CNIRulePack()))
	}
}

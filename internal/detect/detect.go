// Package detect is the range's streaming detection engine: a small
// deterministic rule evaluator that watches the live trace stream as the
// kernel steps (or replays an exported JSONL stream offline) and fires
// alerts. The paper's campaigns ran for months before anyone noticed;
// this package exists so the reproduction can measure the quantity that
// matters to a defender — virtual time from first hop to first alert.
//
// Three rule primitives cover the SNIPPETS-derived hunting content:
// single-event matches (cat/actor/msg/tag predicates), threshold counts
// over sliding virtual-time windows, and ordered sequences. Rules are
// evaluated in pack order against every event, so for a fixed seed the
// alert stream is byte-identical at any `-parallel` worker count.
//
// In live mode each firing opens an alert span whose parent is the span
// of the triggering event, so alerts join the provenance forest
// (DESIGN.md §7): Chain() walks from an alert back through the infection
// chain that tripped it.
//
// Scoring is noise-aware: rules carry a Scope (behavioural vs
// campaign-artifact, the D2 transfer result), and the benign
// user-activity layer (internal/users) emits the same substrate
// telemetry attackers do, so D4 measures per-rule precision/recall on a
// populated fleet and D5 measures the pack's pure-noise false-positive
// floor. Because benign actions are span-attributed too, a false
// positive's chain terminates at a users.session root rather than an
// intrusion root — that root is the TP/FP oracle (DESIGN.md §11).
package detect

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/runstats"
	"repro/internal/sim"
)

// TagMatch matches one event tag: key K must be present and, when set,
// its value must equal V exactly or contain Contains.
type TagMatch struct {
	K        string
	V        string
	Contains string
}

// Predicate is a single-event filter. Zero-valued fields are wildcards;
// set fields must all hold.
type Predicate struct {
	Cat         string // exact trace category
	Actor       string // exact actor
	ActorPrefix string // actor prefix (host-group targeting)
	MsgContains string // substring of the message
	Tags        []TagMatch
}

// Match reports whether the event satisfies the predicate.
func (p *Predicate) Match(e obs.Event) bool {
	if p.Cat != "" && e.Cat != p.Cat {
		return false
	}
	if p.Actor != "" && e.Actor != p.Actor {
		return false
	}
	if p.ActorPrefix != "" && !hasPrefix(e.Actor, p.ActorPrefix) {
		return false
	}
	if p.MsgContains != "" && !contains(e.Msg, p.MsgContains) {
		return false
	}
	for _, tm := range p.Tags {
		v, ok := e.Get(tm.K)
		if !ok {
			return false
		}
		if tm.V != "" && v != tm.V {
			return false
		}
		if tm.Contains != "" && !contains(v, tm.Contains) {
			return false
		}
	}
	return true
}

// contains/hasPrefix avoid importing strings into the per-event hot path
// signature — they compile to the same code.
func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Threshold fires when Count events matching Of land within a sliding
// virtual-time Window — the "N psexec executions in six hours" shape.
// PerActor keeps an independent window per emitting actor. On firing,
// the window state resets so one burst yields one alert.
type Threshold struct {
	Of       Predicate
	Count    int
	Window   time.Duration
	PerActor bool
}

// Sequence fires when its steps match in order within Window of the
// first step — the kill-chain shape ("web shell write → scheduled-task
// create → psexec"). A step may be satisfied by any later matching
// event; non-matching events in between are ignored. When the window
// expires the partial match resets and the current event may restart the
// chain. PerActor tracks an independent chain per actor.
type Sequence struct {
	Steps    []Predicate
	Window   time.Duration
	PerActor bool
}

// Scope classifies what a rule keys on — measured, not asserted: D2
// replays every other weapon's trace through the pack and counts which
// rules transfer, and D4/D5 price each scope's false-positive surface
// against the benign user-activity layer.
type Scope string

const (
	// ScopeBehavioural rules key on attacker technique (remote service
	// execution, fan-out rates) and fire on any campaign using it — and,
	// symmetrically, on the benign admin who shares the technique (the
	// D5 noise floor).
	ScopeBehavioural Scope = "behavioural"
	// ScopeCampaign rules key on campaign-specific artifacts (file
	// names, paths, beacon cadence) — silent on other weapons in D2 and
	// on pure noise in D5, blind to a re-tooled attacker.
	ScopeCampaign Scope = "campaign"
)

// Rule is one detection: exactly one of Match, Threshold, Sequence must
// be set. Name must use the metric charset (lowercase words, digits,
// '.', '_', '-') because each rule owns a detect.rule.<name>.fire
// counter. Cooldown suppresses re-firing for the same key (actor, or
// globally for non-per-actor rules) within the given virtual interval.
// Scope is advisory metadata for scoring (the engine ignores it).
type Rule struct {
	Name      string
	Desc      string
	Scope     Scope
	Match     *Predicate
	Threshold *Threshold
	Sequence  *Sequence
	Cooldown  time.Duration
}

func (r *Rule) validate() error {
	set := 0
	if r.Match != nil {
		set++
	}
	if r.Threshold != nil {
		set++
		if r.Threshold.Count < 1 || r.Threshold.Window <= 0 {
			return fmt.Errorf("detect: rule %q: threshold needs count >= 1 and window > 0", r.Name)
		}
	}
	if r.Sequence != nil {
		set++
		if len(r.Sequence.Steps) < 2 || r.Sequence.Window <= 0 {
			return fmt.Errorf("detect: rule %q: sequence needs >= 2 steps and window > 0", r.Name)
		}
	}
	if set != 1 {
		return fmt.Errorf("detect: rule %q must set exactly one of Match/Threshold/Sequence, has %d", r.Name, set)
	}
	if r.Name == "" {
		return fmt.Errorf("detect: rule with empty name")
	}
	return nil
}

// Alert is one rule firing. Cause is the span of the triggering event
// (zero when it was unattributed); Span is the alert's own provenance
// episode, allocated only in live mode.
type Alert struct {
	Rule  string
	At    time.Time
	Seq   uint64 // trace sequence of the triggering event
	Actor string
	Msg   string // message of the triggering event
	Cause obs.Span
	Span  obs.Span
}

// Event converts the alert to its export form: cat "alert", the firing
// rule as a tag, and Parent carrying the triggering cause so offline
// alert streams keep the causal link even without a span of their own.
func (a Alert) Event() obs.Event {
	return obs.Event{
		At: a.At, Seq: a.Seq, Cat: string(sim.CatAlert), Actor: a.Actor,
		Msg: "alert: " + a.Rule, Span: a.Span, Parent: a.Cause,
		Tags: []obs.Tag{obs.T("rule", a.Rule)},
	}
}

// WriteAlertsJSONL exports alerts one JSON object per line, in firing
// order. Equal inputs produce identical bytes.
func WriteAlertsJSONL(w io.Writer, alerts []Alert) error {
	events := make([]obs.Event, len(alerts))
	for i, a := range alerts {
		events[i] = a.Event()
	}
	return obs.WriteJSONL(w, events)
}

// seqState is one in-flight sequence match.
type seqState struct {
	step    int
	startAt time.Time
}

// Engine evaluates a rule pack over an event stream. Create with New
// (offline replay) or Attach (live, subscribed to a kernel's trace).
// The engine is single-threaded, like the kernel that feeds it.
type Engine struct {
	k     *sim.Kernel // nil in offline mode
	rules []Rule

	alerts     []Alert
	seen       uint64
	suppressed uint64

	thState   []map[string][]time.Time
	sqState   []map[string]*seqState
	lastFire  []map[string]time.Time
	fireCount []int

	counters []*obs.Counter // live only, parallel to rules
	mTotal   *obs.Counter
	mSeen    *obs.Counter
}

// New builds an offline engine for Replay/Handle.
func New(rules []Rule) (*Engine, error) {
	en := &Engine{rules: rules}
	for i := range rules {
		if err := rules[i].validate(); err != nil {
			return nil, err
		}
	}
	n := len(rules)
	en.thState = make([]map[string][]time.Time, n)
	en.sqState = make([]map[string]*seqState, n)
	en.lastFire = make([]map[string]time.Time, n)
	en.fireCount = make([]int, n)
	for i := range rules {
		en.thState[i] = make(map[string][]time.Time)
		en.sqState[i] = make(map[string]*seqState)
		en.lastFire[i] = make(map[string]time.Time)
	}
	return en, nil
}

// Attach builds a live engine subscribed to the kernel's trace: every
// record the range emits flows through the rule pack as it happens, and
// each firing opens an alert span parented to the triggering event's
// span. Per-rule firing counters register as detect.rule.<name>.fire.
func Attach(k *sim.Kernel, rules []Rule) (*Engine, error) {
	en, err := New(rules)
	if err != nil {
		return nil, err
	}
	en.k = k
	en.counters = make([]*obs.Counter, len(rules))
	for i, r := range rules {
		en.counters[i] = k.Metrics().Counter("detect.rule." + r.Name + ".fire")
	}
	en.mTotal = k.Metrics().Counter("detect.alert.total")
	en.mSeen = k.Metrics().Counter("detect.event.seen")
	k.Trace().Subscribe(en.Handle)
	return en, nil
}

// Handle feeds one event through every rule in pack order. Alert events
// are ignored — the engine's own firings echo back through the live
// subscription and must not re-trigger rules.
func (en *Engine) Handle(e obs.Event) {
	if e.Cat == string(sim.CatAlert) {
		return
	}
	en.seen++
	if en.mSeen != nil {
		en.mSeen.Inc()
	}
	for i := range en.rules {
		en.eval(i, e)
	}
}

func (en *Engine) eval(i int, e obs.Event) {
	r := &en.rules[i]
	switch {
	case r.Match != nil:
		if r.Match.Match(e) {
			en.fire(i, e, e.Actor)
		}
	case r.Threshold != nil:
		th := r.Threshold
		if !th.Of.Match(e) {
			return
		}
		key := ""
		if th.PerActor {
			key = e.Actor
		}
		times := append(en.thState[i][key], e.At)
		// Evict observations that slid out of the window: the window is
		// the half-open interval (e.At - Window, e.At].
		keep := 0
		for keep < len(times) && e.At.Sub(times[keep]) >= th.Window {
			keep++
		}
		times = times[keep:]
		if len(times) >= th.Count {
			en.thState[i][key] = times[:0]
			en.fire(i, e, e.Actor)
			return
		}
		en.thState[i][key] = times
	case r.Sequence != nil:
		sq := r.Sequence
		key := ""
		if sq.PerActor {
			key = e.Actor
		}
		st := en.sqState[i][key]
		if st == nil {
			st = &seqState{}
			en.sqState[i][key] = st
		}
		if st.step > 0 && e.At.Sub(st.startAt) >= sq.Window {
			st.step = 0
		}
		if !sq.Steps[st.step].Match(e) {
			return
		}
		if st.step == 0 {
			st.startAt = e.At
		}
		st.step++
		if st.step == len(sq.Steps) {
			st.step = 0
			en.fire(i, e, e.Actor)
		}
	}
}

// fire records one rule firing (unless suppressed by cooldown) and, in
// live mode, opens the alert's provenance span as a child of the
// triggering event's episode.
func (en *Engine) fire(i int, e obs.Event, key string) {
	r := &en.rules[i]
	if r.Cooldown > 0 {
		if last, ok := en.lastFire[i][key]; ok && e.At.Sub(last) < r.Cooldown {
			en.suppressed++
			return
		}
		en.lastFire[i][key] = e.At
	}
	a := Alert{Rule: r.Name, At: e.At, Seq: e.Seq, Actor: e.Actor, Msg: e.Msg, Cause: e.Span}
	en.fireCount[i]++
	if en.k != nil {
		en.k.WithCause(sim.Cause{Span: e.Span, Vector: "detect"}, func() {
			a.Span = en.k.OpenSpan(sim.CatAlert, e.Actor, "alert: "+r.Name, "detect",
				obs.T("rule", r.Name))
		})
		en.counters[i].Inc()
		en.mTotal.Inc()
	}
	en.alerts = append(en.alerts, a)
}

// Alerts returns the firings so far, in order. The caller must not
// mutate the result.
func (en *Engine) Alerts() []Alert { return en.alerts }

// Seen reports how many (non-alert) events the engine evaluated.
func (en *Engine) Seen() uint64 { return en.seen }

// Suppressed reports how many firings cooldowns swallowed.
func (en *Engine) Suppressed() uint64 { return en.suppressed }

// Rules returns the engine's rule pack.
func (en *Engine) Rules() []Rule { return en.rules }

// FireCount returns how many times the named rule fired (0 for unknown
// rules — a rule that never fires and one that does not exist render the
// same way in a coverage table).
func (en *Engine) FireCount(name string) int {
	for i := range en.rules {
		if en.rules[i].Name == name {
			return en.fireCount[i]
		}
	}
	return 0
}

// Replay runs an exported event stream through a rule pack offline. The
// input must be in trace order (as WriteJSONL exports it); the result is
// the same alert list a live engine produced, minus the live-only alert
// span IDs. Replay is the offline "detect" wall-phase: when a runstats
// collector is live it gets the region's wall time (live engines run
// inline inside the kernel's "run" phase and are not separable).
func Replay(events []obs.Event, rules []Rule) ([]Alert, error) {
	defer runstats.Phase("detect")()
	en, err := New(rules)
	if err != nil {
		return nil, err
	}
	for _, e := range events {
		en.Handle(e)
	}
	return en.Alerts(), nil
}

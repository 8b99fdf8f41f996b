package sim

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Category classifies trace records so analyses (and tests) can filter the
// event stream without string matching on messages.
type Category string

// Well-known trace categories used across the range.
const (
	CatExec      Category = "exec"      // process/sample execution
	CatInfect    Category = "infect"    // successful compromise of a host
	CatSpread    Category = "spread"    // propagation attempt
	CatExploit   Category = "exploit"   // exploit gate fired
	CatNetwork   Category = "network"   // network traffic
	CatC2        Category = "c2"        // command-and-control exchange
	CatExfil     Category = "exfil"     // data theft
	CatPLC       Category = "plc"       // industrial process events
	CatWipe      Category = "wipe"      // destructive action
	CatDefense   Category = "defense"   // security product activity
	CatCert      Category = "cert"      // certificate operations
	CatSuicide   Category = "suicide"   // self-removal
	CatBluetooth Category = "bluetooth" // bluetooth activity
	CatUSB       Category = "usb"       // removable media activity
	CatFault     Category = "fault"     // injected adversity (takedown, crash, sweep)
	CatAlert     Category = "alert"     // detection rule firing (internal/detect)
	CatUser      Category = "user"      // benign user activity (internal/users)
)

// Trace is a bounded ring buffer of obs.Event records. A muted trace
// with no subscriber records nothing: its emitters return at once, and
// Seq numbers only the records someone keeps or receives.
//
// The ring is allocated a fixed-size chunk at a time as records are
// retained, so a world that never retains a record (a muted one, or one
// that emits nothing) holds no ring storage, and a full ring holds
// exactly its capacity.
//
// Span-opening records (the first record of each causal episode, emitted
// by Kernel.OpenSpan) are additionally retained in an unbounded side
// index so ring eviction at fleet scale never orphans a provenance
// parent. Ordinary records are stamped with the ambient span installed
// by the kernel's causal context. Seq is assigned here and, with At,
// gives records a total order that survives export and concatenation.
type Trace struct {
	chunks   [][]obs.Event // ring storage, traceChunk records per chunk
	capacity int
	next     int
	full     bool
	seq      uint64
	muted    bool

	ambient obs.Span    // stamped onto every Emit/Add record
	spans   []obs.Event // span-opening records, seq-ascending, never evicted

	sinks []func(obs.Event) // live subscribers, called on every record
}

// traceChunk is how many ring records one chunk holds.
const traceChunk = 1024

// NewTrace returns a trace holding at most capacity records.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{capacity: capacity}
}

// SetMuted disables (true) or enables (false) record retention; a muted
// trace still feeds its subscribers. Fleet benchmarks mute their worlds
// to avoid log churn.
func (t *Trace) SetMuted(m bool) { t.muted = m }

// Live reports whether an emitted record would be observed by anyone:
// retained (unmuted) or forwarded to a subscriber. Emit, EmitSpan and
// Add do nothing unless the trace is Live, so an emitter checks it only
// to skip building a message and tags nobody will read.
func (t *Trace) Live() bool { return !t.muted || len(t.sinks) > 0 }

// Subscribe registers a sink called synchronously with every record as
// it is emitted — ring eviction and muting do not apply, so a live
// detector sees the full stream even at fleet scale. Sinks run on the
// emitting goroutine in emission order; a sink that emits back into the
// trace (an alert, say) must guard against re-entering itself.
func (t *Trace) Subscribe(fn func(obs.Event)) { t.sinks = append(t.sinks, fn) }

// publish fans a freshly-stamped record out to subscribers.
func (t *Trace) publish(e obs.Event) {
	for _, fn := range t.sinks {
		fn(e)
	}
}

// Add appends a record built from a format string, formatted only when
// the trace is Live.
func (t *Trace) Add(at time.Time, cat Category, actor, format string, args ...any) {
	if !t.Live() {
		return
	}
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	t.Emit(at, cat, actor, msg)
}

// Emit appends a tagged record. The message is taken verbatim; tags are
// retained in order and appear in JSONL exports. The record is stamped
// with the ambient causal span (zero when no episode is active).
func (t *Trace) Emit(at time.Time, cat Category, actor, msg string, tags ...obs.Tag) {
	if !t.Live() {
		return
	}
	t.seq++
	e := obs.Event{At: at, Seq: t.seq, Cat: string(cat), Actor: actor, Msg: msg, Span: t.ambient, Tags: tags}
	if !t.muted {
		c := t.next / traceChunk
		if c == len(t.chunks) {
			t.chunks = append(t.chunks, make([]obs.Event, min(traceChunk, t.capacity-t.next)))
		}
		t.chunks[c][t.next%traceChunk] = e
		t.next++
		if t.next == t.capacity {
			t.next = 0
			t.full = true
		}
	}
	if len(t.sinks) > 0 {
		t.publish(e)
	}
}

// EmitSpan appends the record that opens causal episode span, caused by
// parent (zero for a root). Opening records are retained in the
// unbounded span index — not the ring — so provenance reconstruction
// can always resolve parents even after ring eviction.
func (t *Trace) EmitSpan(at time.Time, cat Category, actor, msg string, span, parent obs.Span, tags ...obs.Tag) {
	if !t.Live() {
		return
	}
	t.seq++
	e := obs.Event{
		At: at, Seq: t.seq, Cat: string(cat), Actor: actor, Msg: msg,
		Span: span, Parent: parent, Tags: tags,
	}
	if !t.muted {
		t.spans = append(t.spans, e)
	}
	if len(t.sinks) > 0 {
		t.publish(e)
	}
}

// setAmbient installs the span stamped onto subsequent Emit/Add records.
func (t *Trace) setAmbient(s obs.Span) { t.ambient = s }

// Events returns the retained records in chronological order: the ring
// contents, oldest first, merged with the span index by sequence number
// into one fresh slice the caller owns.
func (t *Trace) Events() []obs.Event {
	n := t.next
	if t.full {
		n = t.capacity
	}
	out := make([]obs.Event, 0, n+len(t.spans))
	// Two-way merge: the ring (oldest first, chunk by chunk) and the span
	// index are both seq-ascending.
	j := 0
	merge := func(from, to int) {
		for from < to {
			part := t.chunks[from/traceChunk][from%traceChunk:]
			part = part[:min(len(part), to-from)]
			for i := range part {
				for j < len(t.spans) && t.spans[j].Seq < part[i].Seq {
					out = append(out, t.spans[j])
					j++
				}
				out = append(out, part[i])
			}
			from += len(part)
		}
	}
	if t.full {
		merge(t.next, t.capacity)
	}
	merge(0, t.next)
	return append(out, t.spans[j:]...)
}

// Filter returns retained records matching the category, in order.
func (t *Trace) Filter(cat Category) []obs.Event {
	var out []obs.Event
	for _, e := range t.Events() {
		if e.Cat == string(cat) {
			out = append(out, e)
		}
	}
	return out
}

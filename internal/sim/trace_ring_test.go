package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// eagerRing is the trace ring as it was before chunked storage: the whole
// ring allocated up front, one slot per record. It is the reference the
// chunked ring must match record for record.
type eagerRing struct {
	records []obs.Event
	next    int
	full    bool
	spans   []obs.Event
}

func newEagerRing(capacity int) *eagerRing {
	if capacity < 1 {
		capacity = 1
	}
	return &eagerRing{records: make([]obs.Event, capacity)}
}

func (r *eagerRing) emit(e obs.Event) {
	r.records[r.next] = e
	r.next++
	if r.next == len(r.records) {
		r.next = 0
		r.full = true
	}
}

func (r *eagerRing) emitSpan(e obs.Event) { r.spans = append(r.spans, e) }

func (r *eagerRing) events() []obs.Event {
	older, newer := r.records[:r.next], []obs.Event(nil)
	if r.full {
		older, newer = r.records[r.next:], r.records[:r.next]
	}
	out := make([]obs.Event, 0, len(older)+len(newer)+len(r.spans))
	j := 0
	for _, part := range [2][]obs.Event{older, newer} {
		for i := range part {
			for j < len(r.spans) && r.spans[j].Seq < part[i].Seq {
				out = append(out, r.spans[j])
				j++
			}
			out = append(out, part[i])
		}
	}
	return append(out, r.spans[j:]...)
}

// TestChunkedRingMatchesEager drives the trace and the eager reference
// with the same stream, ring records with span-opening records mixed in,
// across capacities on both sides of the chunk size and record counts
// from empty to several wraps, and requires identical Events().
func TestChunkedRingMatchesEager(t *testing.T) {
	for _, capacity := range []int{1, 2, traceChunk - 1, traceChunk, traceChunk + 1, 3000} {
		for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3*capacity + 5} {
			tr, ref := NewTrace(capacity), newEagerRing(capacity)
			seq := uint64(0)
			for i := 0; i < n; i++ {
				at := Epoch.Add(time.Duration(i) * time.Second)
				if i%7 == 3 {
					seq++
					tr.EmitSpan(at, CatInfect, "h", "opened", obs.Span(seq), 0)
					ref.emitSpan(obs.Event{At: at, Seq: seq, Cat: string(CatInfect), Actor: "h", Msg: "opened", Span: obs.Span(seq)})
				}
				seq++
				msg := fmt.Sprintf("record %d", i)
				tr.Emit(at, CatExec, "h", msg)
				ref.emit(obs.Event{At: at, Seq: seq, Cat: string(CatExec), Actor: "h", Msg: msg})
			}
			if got, want := tr.Events(), ref.events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity %d, %d records: chunked ring returned %d events, eager ring %d, or their contents differ",
					capacity, n, len(got), len(want))
			}
		}
	}
}

// TestFullRingHoldsExactlyCapacity pins the storage bound: a ring that has
// wrapped holds exactly capacity records in chunks of traceChunk (the last
// one shorter), with no spare capacity from growth.
func TestFullRingHoldsExactlyCapacity(t *testing.T) {
	for _, capacity := range []int{1, traceChunk, traceChunk + 1, 3000} {
		tr := NewTrace(capacity)
		for i := 0; i < 2*capacity; i++ {
			tr.Emit(Epoch, CatExec, "h", "x")
		}
		held := 0
		for i, c := range tr.chunks {
			if cap(c) != len(c) || (i < len(tr.chunks)-1 && len(c) != traceChunk) {
				t.Fatalf("capacity %d: chunk %d has len %d cap %d", capacity, i, len(c), cap(c))
			}
			held += len(c)
		}
		if held != capacity {
			t.Fatalf("capacity %d: ring holds %d records", capacity, held)
		}
	}
}

// TestNewKernelAllocatesNoRing pins that a world's 16 Ki-record ring costs
// nothing until records are retained: a kernel that never emits, like
// every muted fleet site, allocates well under one ring chunk.
func TestNewKernelAllocatesNoRing(t *testing.T) {
	const kernels = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < kernels; i++ {
		NewKernel(WithTraceCapacity(1 << 14))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / kernels; per >= 64<<10 {
		t.Fatalf("NewKernel(WithTraceCapacity(1<<14)) allocates %d bytes, want < 64 KiB", per)
	}
}

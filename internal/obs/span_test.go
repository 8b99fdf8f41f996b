package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestEventJSONLSpanFields(t *testing.T) {
	e := Event{
		At: eventAt, Seq: 9, Cat: "infect", Actor: "WS-02", Msg: "m",
		Span: 4, Parent: 1,
	}
	line := string(e.AppendJSONL(nil))
	want := `{"t":"2010-06-01T08:30:00Z","seq":9,"cat":"infect","actor":"WS-02",` +
		`"msg":"m","span":4,"parent":1}` + "\n"
	if line != want {
		t.Fatalf("JSONL line:\n got %s want %s", line, want)
	}
	// Zero span/parent stay off the wire so span-free exports keep their
	// pre-span byte shape.
	plain := string(Event{At: eventAt, Seq: 1, Cat: "c", Actor: "a", Msg: "m"}.AppendJSONL(nil))
	if strings.Contains(plain, "span") || strings.Contains(plain, "parent") {
		t.Fatalf("zero span/parent leaked into %s", plain)
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{At: eventAt, Seq: 1, Cat: "infect", Actor: "x", Msg: "root", Span: 1,
			Tags: []Tag{T("vector", "root")}},
		{At: eventAt.Add(time.Hour), Seq: 2, Cat: "infect", Actor: "y", Msg: "child",
			Span: 2, Parent: 1, Tags: []Tag{T("exp", "F1"), T("vector", "usb-lnk")}},
		{At: eventAt.Add(2 * time.Hour), Seq: 3, Cat: "exec", Actor: "y", Msg: "detail", Span: 2},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i, e := range events {
		g := got[i]
		if !g.At.Equal(e.At) || g.Seq != e.Seq || g.Cat != e.Cat ||
			g.Actor != e.Actor || g.Msg != e.Msg || g.Span != e.Span || g.Parent != e.Parent {
			t.Fatalf("event %d: got %+v want %+v", i, g, e)
		}
		if len(g.Tags) != len(e.Tags) {
			t.Fatalf("event %d tags: got %v want %v", i, g.Tags, e.Tags)
		}
		for _, want := range e.Tags {
			if v, ok := g.Get(want.K); !ok || v != want.V {
				t.Fatalf("event %d tag %s: got %q,%v", i, want.K, v, ok)
			}
		}
	}
}

func TestGet(t *testing.T) {
	e := Event{Tags: []Tag{T("a", "1"), T("b", "2")}}
	if v, ok := e.Get("b"); !ok || v != "2" {
		t.Fatalf("Get(b) = %q,%v", v, ok)
	}
	if _, ok := e.Get("zz"); ok {
		t.Fatal("Get on a missing key reported ok")
	}
}

func TestTagAllPrependsEverywhere(t *testing.T) {
	events := []Event{
		{Msg: "no tags"},
		{Msg: "one tag", Tags: []Tag{T("a", "1")}},
		{Msg: "two tags", Tags: []Tag{T("a", "1"), T("b", "2")}},
	}
	orig := events[2].Tags
	TagAll(events, T("exp", "F1"))
	for i, e := range events {
		if len(e.Tags) == 0 || e.Tags[0].K != "exp" || e.Tags[0].V != "F1" {
			t.Fatalf("event %d: exp tag not prepended: %v", i, e.Tags)
		}
		if len(e.Tags) != i+1 {
			t.Fatalf("event %d: tag count %d, want %d", i, len(e.Tags), i+1)
		}
	}
	if len(orig) != 2 || orig[0].K != "a" {
		t.Fatal("TagAll mutated an original tag slice")
	}
	// Appending to one event's tags must not bleed into the next event's
	// arena segment.
	events[0].Tags = append(events[0].Tags, T("x", "9"))
	if events[1].Tags[0].K != "exp" || events[1].Tags[1].K != "a" {
		t.Fatalf("arena bleed: event 1 tags = %v", events[1].Tags)
	}
}

func TestTagAllAllocsConstant(t *testing.T) {
	base := make([]Event, 4096)
	for i := range base {
		base[i].Tags = []Tag{T("vector", "usb-lnk")}
	}
	work := make([]Event, len(base))
	allocs := testing.AllocsPerRun(10, func() {
		copy(work, base) // restore the original tag slices; no allocation
		TagAll(work, T("exp", "F1"))
	})
	// The arena pattern costs one backing allocation regardless of event
	// count; the per-event WithTag path would cost ~4096 here.
	if allocs > 4 {
		t.Fatalf("TagAll allocated %v times for 4096 events, want O(1)", allocs)
	}
}

func BenchmarkTagAll(b *testing.B) {
	events := make([]Event, 8192)
	for i := range events {
		events[i].Tags = []Tag{T("vector", "usb-lnk"), T("os", "win7")}
	}
	work := make([]Event, len(events))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, events)
		TagAll(work, T("exp", "C7"))
	}
}

func BenchmarkWithTagPerEvent(b *testing.B) {
	// The pre-batch path TagAll replaced: one allocation per event.
	events := make([]Event, 8192)
	for i := range events {
		events[i].Tags = []Tag{T("vector", "usb-lnk"), T("os", "win7")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			_ = events[j].WithTag(T("exp", "C7"))
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var eventAt = time.Date(2010, time.June, 1, 8, 30, 0, 0, time.UTC)

func TestEventJSONLShape(t *testing.T) {
	e := Event{
		At: eventAt, Seq: 7, Cat: "infect", Actor: "WS-01",
		Msg:  `stuxnet "installed"`,
		Tags: []Tag{T("host", "WS-01"), Ti("count", 3)},
	}
	line := string(e.AppendJSONL(nil))
	want := `{"t":"2010-06-01T08:30:00Z","seq":7,"cat":"infect","actor":"WS-01",` +
		`"msg":"stuxnet \"installed\"","tags":{"host":"WS-01","count":"3"}}` + "\n"
	if line != want {
		t.Fatalf("JSONL line:\n got %s want %s", line, want)
	}
	// Each line must be valid standalone JSON.
	var parsed map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &parsed); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
	if parsed["cat"] != "infect" || parsed["seq"] != float64(7) {
		t.Fatalf("parsed = %v", parsed)
	}
}

func TestEventJSONLOmitsEmptyTags(t *testing.T) {
	e := Event{At: eventAt, Seq: 1, Cat: "exec", Actor: "H", Msg: "m"}
	if strings.Contains(string(e.AppendJSONL(nil)), "tags") {
		t.Fatal("empty tag set not omitted")
	}
}

func TestWithTagPrepends(t *testing.T) {
	e := Event{Tags: []Tag{T("a", "1")}}
	e2 := e.WithTag(T("exp", "F1"))
	if len(e2.Tags) != 2 || e2.Tags[0].K != "exp" || e2.Tags[1].K != "a" {
		t.Fatalf("tags = %v", e2.Tags)
	}
	if len(e.Tags) != 1 {
		t.Fatal("WithTag mutated the original")
	}
}

func TestWriteJSONL(t *testing.T) {
	events := []Event{
		{At: eventAt, Seq: 1, Cat: "a", Actor: "x", Msg: "one"},
		{At: eventAt.Add(time.Minute), Seq: 2, Cat: "b", Actor: "y", Msg: "two"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
	}
}

// TestAppendStringMatchesMarshal: appendString must quote every string
// exactly as json.Marshal does, on its plain-ASCII fast path and off it.
func TestAppendStringMatchesMarshal(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendString(%q) = %s, want x%s", s, got, want)
		}
	}
	check("")
	for a := 0; a < 256; a++ {
		check(string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
	for _, s := range []string{
		"\u2028", "\u2029", "line\u2028sep", "para\u2029sep",
		"\xff\xfe", "ok\xc3", "\xed\xa0\x80", "héllo", "日本",
		"WS-00001", `C:\Users\emp\Documents\report-0001.docx`, "<a&b>",
	} {
		check(s)
	}
}

// TestAppendJSONLAllocs pins the plain-string path: a record whose
// strings need no escaping encodes into a presized buffer without
// allocating.
func TestAppendJSONLAllocs(t *testing.T) {
	e := Event{
		At: eventAt, Seq: 42, Cat: "exec", Actor: "WS-00001", Msg: "exec trksvr.exe",
		Span: 9, Parent: 3, Tags: []Tag{T("host", "WS-00001"), Ti("pid", 1004)},
	}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() { buf = e.AppendJSONL(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendJSONL of an all-plain record made %.0f allocations, want 0", allocs)
	}
}

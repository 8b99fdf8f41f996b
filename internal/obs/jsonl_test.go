package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goodLine is a well-formed record that precedes each malformed line, so
// every failure must name line 2.
const goodLine = `{"t":"2010-06-01T08:30:00Z","seq":1,"cat":"c","actor":"a","msg":"m"}`

// malformedLines are one line of each class ParseJSONL must reject.
var malformedLines = []struct {
	name, line, want string
	refAccepts       bool // encoding/json ignored unknown keys
}{
	{"bad time", `{"t":"2010-06-01 08:30:00","seq":2}`, "t: parsing time", false},
	{"time not a string", `{"t":1}`, "t: want", false},
	{"negative seq", `{"seq":-1}`, "seq: strconv.ParseUint", false},
	{"float seq", `{"seq":1.5}`, "seq: strconv.ParseUint", false},
	{"exponent seq", `{"seq":1e3}`, "seq: strconv.ParseUint", false},
	{"leading-zero seq", `{"seq":01}`, "seq: invalid number", false},
	{"overflowing seq", `{"seq":18446744073709551616}`, "value out of range", false},
	{"string seq", `{"seq":"2"}`, "seq: want a number", false},
	{"non-string tag value", `{"tags":{"host":1}}`, `tags: value of "host"`, false},
	{"null tag value", `{"tags":{"host":null}}`, `tags: value of "host"`, false},
	{"tags not an object", `{"tags":["host"]}`, "tags: want", false},
	{"unknown key", `{"seq":2,"severity":"high"}`, `unknown key "severity"`, true},
	{"case-folded key", `{"SEQ":2}`, `unknown key "SEQ"`, true},
	{"trailing data", `{"seq":2} {"seq":3}`, "trailing data", false},
	{"trailing comma", `{"seq":2,}`, "want", false},
	{"unterminated string", `{"cat":"infect}`, "unterminated string", false},
	{"raw control byte", "{\"msg\":\"tab\there\"}", "control byte 0x09", false},
	{"bad escape", `{"msg":"\x"}`, "msg: invalid character", false},
	{"not json", `not json`, "want", false},
	{"whitespace only", "   ", "end of line", false},
}

func TestParseJSONLRejectsGarbage(t *testing.T) {
	for _, c := range malformedLines {
		t.Run(c.name, func(t *testing.T) {
			in := goodLine + "\n" + c.line + "\n"
			_, err := ParseJSONL(strings.NewReader(in))
			if err == nil || !strings.HasPrefix(err.Error(), "obs: line 2: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want obs: line 2: ...%s...", err, c.want)
			}
			if _, refErr := parseJSONLRef(strings.NewReader(in)); (refErr == nil) != c.refAccepts {
				t.Fatalf("reference decoder err = %v, want accepted=%v", refErr, c.refAccepts)
			}
		})
	}
}

// cornerLines are the encoding/json corner cases the decoder contract
// keeps: null lines and values, repeated keys, escaped keys and invalid
// UTF-8.
var cornerLines = []string{
	`null`, `{}`, " \t{ \"seq\" : 3 , \"tags\" : { } }\r",
	`{"cat":"a","cat":null,"seq":4,"seq":null,"t":"2010-06-01T08:30:00Z","t":null}`,
	`{"tags":{"a":"1"},"tags":{"b":"2"}}`, `{"tags":{"a":"1"},"tags":null}`,
	`{"\u0063at":"escaped key","tags":{"k\u00e9":"\u2028","k":"<&>"}}`,
	"{\"msg\":\"bad \xff utf-8\",\"actor\":\"h\xc3\xa4ndler\"}",
	`{"t":"2012-08-15T08:00:00.123456789+03:00","span":18446744073709551615,"parent":0}`,
}

// TestParseJSONLMatchesReference checks ParseJSONL against the reference
// on cornerLines, then on a whole generated trace.
func TestParseJSONLMatchesReference(t *testing.T) {
	for _, line := range cornerLines {
		got, err := ParseJSONL(strings.NewReader(line))
		want, refErr := parseJSONLRef(strings.NewReader(line))
		if err != nil || refErr != nil {
			t.Fatalf("%q: err = %v, reference err = %v", line, err, refErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %#v\nwant %#v", line, got, want)
		}
	}
	// A trace several times the scanner's 64 KiB buffer: a string that
	// aliased the buffer would be overwritten by later lines.
	data := realisticTrace(2000)
	got, err := ParseJSONL(bytes.NewReader(data))
	want, refErr := parseJSONLRef(bytes.NewReader(data))
	if err != nil || refErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("generated trace differs from the reference (err %v, reference err %v)", err, refErr)
	}
}

// realisticTrace generates n records shaped like a range export: a few
// hundred hosts, a handful of categories and tag keys, user breadcrumbs
// on most records, spans with parents, and Windows paths that need
// escaping.
func realisticTrace(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2012, 8, 15, 8, 0, 0, 0, time.UTC)
	cats := []string{"user", "user", "user", "network", "exec", "infect", "wipe", "alert"}
	verbs := []string{"users.doc.write draft-00.pdf", "users.mail.send", "users.web.browse", "users.session.start"}
	var buf []byte
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("WS-%04d", rng.Intn(400))
		e := Event{
			At:  base.Add(time.Duration(i/8) * time.Minute),
			Seq: uint64(i + 1), Cat: cats[rng.Intn(len(cats))], Actor: host,
			Msg:  verbs[rng.Intn(len(verbs))],
			Span: Span(rng.Intn(5000) + 1),
			Tags: []Tag{T("exp", "C7"), T("user", "emp-"+strings.ToLower(host)), T("profile", "office")},
		}
		switch e.Cat {
		case "infect", "wipe":
			e.Parent = Span(rng.Intn(int(e.Span)))
			e.Msg = `dropped C:\Windows\System32\trksvr.exe`
			e.Tags = []Tag{T("exp", "C7"), T("vector", "psexec"), T("file", `C:\Windows\System32\trksvr.exe`)}
		case "network":
			e.Msg = "POST http://mail.corp.example/send (49 bytes)"
			e.Tags = []Tag{T("exp", "C7"), T("dest", "mail.corp.example"), Ti("bytes", 49)}
		}
		buf = e.AppendJSONL(buf)
	}
	return buf
}

// chunkings are the worker counts and chunk sizes parseJSONL must not
// depend on: one line per chunk, a few short lines per chunk, and the
// size ParseJSONL uses.
var chunkings = func() (out []struct{ workers, size int }) {
	for _, workers := range []int{1, 2, 7} {
		for _, size := range []int{1, 64, chunkBytes} {
			out = append(out, struct{ workers, size int }{workers, size})
		}
	}
	return out
}()

// TestParseJSONLChunkInvariance decodes streams at every chunking and
// requires the reference's events in an exactly sized slice. The
// generated trace needs more chunks than are ever in flight at once, so
// line buffers are reused while earlier results are held: a returned
// string that aliased one would be overwritten before the comparison.
func TestParseJSONLChunkInvariance(t *testing.T) {
	streams := []struct{ name, in string }{
		{"generated", string(realisticTrace(20000))},
		{"corner lines", strings.Join(cornerLines, "\n") + "\n"},
		{"blank and CRLF lines", "\n\r\n" + goodLine + "\r\n\r\n\n" + goodLine + "\n\n"},
		{"no final newline", string(realisticTrace(40)) + goodLine},
		{"blank lines only", "\n\n\r\n"},
		{"empty", ""},
	}
	for _, st := range streams {
		want, err := parseJSONLRef(strings.NewReader(st.in))
		if err != nil {
			t.Fatalf("%s: reference: %v", st.name, err)
		}
		for _, c := range chunkings {
			got, err := parseJSONL(strings.NewReader(st.in), c.workers, c.size)
			if err != nil {
				t.Fatalf("%s at %d workers, %d-byte chunks: %v", st.name, c.workers, c.size, err)
			}
			if !reflect.DeepEqual(got, want) || cap(got) != len(got) {
				t.Fatalf("%s at %d workers, %d-byte chunks: %d events (cap %d) differ from the reference's %d",
					st.name, c.workers, c.size, len(got), cap(got), len(want))
			}
		}
	}
}

// TestParseJSONLFirstErrorInLineOrder puts a malformed line and a line
// over the scanner's limit in either order and requires the error of the
// earlier one, with its line number, at every chunking.
func TestParseJSONLFirstErrorInLineOrder(t *testing.T) {
	body := string(realisticTrace(3000)) // lines 2..3001, many chunks
	long := strings.Repeat("x", 2<<20) + "\n"
	cases := []struct{ name, in, want string }{
		{"malformed, then too long",
			goodLine + "\n" + `{"seq":-1}` + "\n" + body + long,
			"obs: line 2: seq: strconv.ParseUint"},
		{"too long, then malformed",
			goodLine + "\n" + body + long + `{"seq":-1}` + "\n",
			"obs: line 3002: scan: bufio.Scanner: token too long"},
		{"two malformed",
			goodLine + "\n" + body + `{"tags":1}` + "\n" + body + `{"seq":-1}` + "\n",
			"obs: line 3002: tags: want"},
	}
	for _, c := range cases {
		_, err := ParseJSONL(strings.NewReader(c.in))
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %s...", c.name, err, c.want)
		}
		for _, ck := range chunkings {
			got, cerr := parseJSONL(strings.NewReader(c.in), ck.workers, ck.size)
			if got != nil || cerr == nil || cerr.Error() != err.Error() {
				t.Fatalf("%s at %d workers, %d-byte chunks: err = %v, want %v",
					c.name, ck.workers, ck.size, cerr, err)
			}
		}
	}
}

func TestParseJSONLAllocs(t *testing.T) {
	const n = 2000
	data := realisticTrace(n)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseJSONL(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := allocs / n; perRecord > 4 {
		t.Fatalf("ParseJSONL made %.2f allocations per record, want at most 4", perRecord)
	}
}

func BenchmarkParseJSONL(b *testing.B) {
	data := realisticTrace(20000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParseJSONL checks ParseJSONL against the encoding/json reference
// in jsonl_ref_test.go. Where ParseJSONL returns events, the reference
// returns the same events; where the reference accepts a stream whose
// object keys are all wire fields, ParseJSONL accepts it too. A chunked
// decode returns what ParseJSONL does, error text included.
func FuzzParseJSONL(f *testing.F) {
	shapes := []Event{
		{At: eventAt, Seq: 14, Cat: "exploit", Actor: "IIS-01", Msg: "webshell written",
			Tags: []Tag{T("exp", "D4"), T("file", `C:\Program Files\inetpub\UpdateChecker.aspx`)}},
		{At: eventAt, Seq: 15, Cat: "user", Actor: "участок", Msg: "目标 🐙 händler"},
		{At: eventAt, Seq: 16, Cat: "c", Actor: "a", Msg: "<&> and \u2028\u2029 and \x00"},
		{At: eventAt, Seq: 17, Cat: "infect", Actor: "WS-02", Msg: "m", Span: 4, Parent: 1,
			Tags: []Tag{T("vector", "psexec")}},
		{At: eventAt, Seq: 18, Cat: "spread", Actor: "WS-01", Msg: "fan-out",
			Tags: []Tag{T("target", "WS-02"), T("target", "WS-03")}},
	}
	for _, e := range shapes {
		f.Add(string(e.AppendJSONL(nil)))
	}
	for _, c := range malformedLines {
		f.Add(goodLine + "\n" + c.line)
	}
	for _, line := range cornerLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ParseJSONL(strings.NewReader(in))
		want, refErr := parseJSONLRef(strings.NewReader(in))
		// Three workers on 64-byte chunks put chunk boundaries inside
		// every input longer than a line or two.
		chunked, chunkedErr := parseJSONL(strings.NewReader(in), 3, 64)
		if !reflect.DeepEqual(chunked, got) || fmt.Sprint(chunkedErr) != fmt.Sprint(err) {
			t.Fatalf("chunked decode differs: %d events, err %v; want %d events, err %v",
				len(chunked), chunkedErr, len(got), err)
		}
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted a stream the reference rejects (%v)", refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("events differ from the reference:\n got %#v\nwant %#v", got, want)
		case err != nil && refErr == nil && wireKeysOnly(t, in):
			t.Fatalf("rejected a stream of wire keys that the reference accepts: %v", err)
		}
	})
}

// wireKeysOnly reports whether every top-level key of every line of an
// accepted stream is one of the eight AppendJSONL writes.
func wireKeysOnly(t *testing.T, in string) bool {
	sc := bufio.NewScanner(strings.NewReader(in))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("reference accepted a line that is not an object or null: %v", err)
		}
		for k := range m {
			switch k {
			case "t", "seq", "cat", "actor", "msg", "span", "parent", "tags":
			default:
				return false
			}
		}
	}
	return true
}

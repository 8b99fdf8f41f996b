package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Tag is one key=value annotation on an event. Tags are an ordered
// slice, not a map, so encodings are deterministic without sorting.
type Tag struct {
	K, V string
}

// T builds a string tag.
func T(k, v string) Tag { return Tag{K: k, V: v} }

// Ti builds an integer tag.
func Ti(k string, v int64) Tag { return Tag{K: k, V: strconv.FormatInt(v, 10)} }

// Span identifies a causal episode in the trace. Spans are allocated by a
// deterministic per-kernel counter starting at 1; zero means "no span".
type Span uint64

// Event is one structured trace record: what happened (Cat + Msg), to
// whom (Actor), when in *virtual* time (At, with Seq breaking ties into
// a total order), plus free-form tags. Wall-clock time never appears —
// that is what keeps trace exports byte-identical across runs.
//
// Span and Parent carry causality: the first event bearing a given Span
// opens that episode and names its cause via Parent (zero for roots);
// later events with the same Span and Parent == 0 are in-episode detail.
type Event struct {
	At     time.Time
	Seq    uint64
	Cat    string
	Actor  string
	Msg    string
	Span   Span
	Parent Span
	Tags   []Tag
}

// WithTag returns a copy of e with an extra tag prepended (used to stamp
// the owning experiment onto exported events).
func (e Event) WithTag(t Tag) Event {
	tags := make([]Tag, 0, len(e.Tags)+1)
	tags = append(tags, t)
	tags = append(tags, e.Tags...)
	e.Tags = tags
	return e
}

// TagAll prepends the same tag to every event in place, sharing one
// backing array for all the rewritten tag slices. Export paths that
// stamp an experiment ID onto thousands of events use this instead of
// per-event WithTag copies: total allocations stay O(1) in the number
// of events.
func TagAll(events []Event, t Tag) {
	total := 0
	for i := range events {
		total += len(events[i].Tags) + 1
	}
	arena := make([]Tag, 0, total)
	for i := range events {
		start := len(arena)
		arena = append(arena, t)
		arena = append(arena, events[i].Tags...)
		events[i].Tags = arena[start:len(arena):len(arena)]
	}
}

// appendString appends s quoted exactly as json.Marshal quotes it. A
// string of printable ASCII that json.Marshal leaves unescaped (no '"',
// '\\', '<', '>' or '&') is copied between quotes as it is; any other
// string goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil { // cannot happen for a string
				return append(b, `""`...)
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendJSONL appends the event as one JSON line (with trailing newline)
// in fixed field order: t, seq, cat, actor, msg, span, parent, tags.
// Zero span/parent fields are omitted, so span-free events keep the PR-2
// wire shape byte-for-byte. Tags keep their insertion order; an empty
// tag set is omitted.
func (e Event) AppendJSONL(b []byte) []byte {
	b = append(b, `{"t":"`...)
	b = e.At.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"cat":`...)
	b = appendString(b, e.Cat)
	b = append(b, `,"actor":`...)
	b = appendString(b, e.Actor)
	b = append(b, `,"msg":`...)
	b = appendString(b, e.Msg)
	if e.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, uint64(e.Span), 10)
	}
	if e.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(e.Parent), 10)
	}
	if len(e.Tags) > 0 {
		b = append(b, `,"tags":{`...)
		for i, t := range e.Tags {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, t.K)
			b = append(b, ':')
			b = appendString(b, t.V)
		}
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	return b
}

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	var buf []byte
	for _, e := range events {
		buf = e.AppendJSONL(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ParseJSONL decodes a JSONL event stream produced by WriteJSONL. Tags
// come back in wire order with repeated keys intact, so
// WriteJSONL → ParseJSONL → WriteJSONL is byte-identical. Blank lines
// are skipped; a malformed line, or one longer than 1 MiB, fails with its
// line number.
//
// The decoder contract, which FuzzParseJSONL checks against an
// encoding/json reference decoder:
//   - A line is JSON whitespace around either null, which decodes to the
//     zero Event, or one object whose keys are among the eight
//     AppendJSONL writes: t, seq, cat, actor, msg, span, parent, tags. Any
//     other key, a case variant included, is an error that names it.
//   - t is an RFC 3339 string, parsed strictly by time.Time.UnmarshalText
//     from its raw bytes; seq, span and parent are JSON integers that fit
//     a uint64; cat, actor and msg are strings; tags is an object of
//     string values.
//   - A repeated key replaces the earlier value. A null value leaves its
//     field unchanged, except that null tags clear the tags.
//   - Strings resolve JSON escapes, and invalid UTF-8 in them becomes
//     U+FFFD.
//
// No returned string aliases the input. Lines are decoded on up to
// GOMAXPROCS goroutines; the result, errors included, does not depend on
// how many.
func ParseJSONL(r io.Reader) ([]Event, error) {
	return parseJSONL(r, runtime.GOMAXPROCS(0), chunkBytes)
}

// chunkBytes is about how many bytes of lines one worker decodes at a
// time: large enough that handing a chunk over costs little next to
// decoding it, small enough that a few in flight stay near a megabyte.
const chunkBytes = 256 << 10

// parseJSONL frames lines on the calling goroutine and packs whole lines
// into chunks of up to chunkBytes (a longer line gets a chunk of its own),
// which up to workers goroutines decode. Chunk results are taken back in
// input order, so the first error in line order wins whichever worker hit
// it, and a decode error wins over a later scanner error.
func parseJSONL(r io.Reader, workers, chunkBytes int) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := pipeline{
		workers: workers, chunkBytes: chunkBytes,
		jobs: make(chan *chunk, 2*workers), ring: make([]*chunk, 2*workers),
	}
	defer p.stop()
	var c *chunk
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if c != nil && len(c.buf)+len(line) > chunkBytes {
			p.dispatch(c)
			c = nil
		}
		if c == nil {
			if c = p.take(); p.err != nil {
				return nil, p.err
			}
			c.first = lineNo
		}
		c.buf = append(c.buf, line...)
		c.ends = append(c.ends, len(c.buf))
	}
	if c != nil {
		p.dispatch(c)
	}
	for p.taken < p.sent {
		if p.collect(); p.err != nil {
			return nil, p.err
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stops at the first bad line: the one after the
		// last line it delivered.
		return nil, fmt.Errorf("obs: line %d: scan: %w", lineNo+1, err)
	}
	if p.total == 0 {
		return nil, nil
	}
	out := make([]Event, 0, p.total)
	for _, part := range p.parts {
		out = append(out, part...)
	}
	return out, nil
}

// chunk is a run of consecutive lines, blank ones included, that one
// worker decodes.
type chunk struct {
	first int    // line number of the first line
	buf   []byte // the lines back to back, without their newlines
	ends  []int  // line first+i ends at buf[ends[i]]
	// Set by the worker before it signals done.
	events []Event
	err    error
	done   chan struct{} // capacity 1: one send per dispatch
}

// pipeline hands chunks to lazily started workers and takes their
// results back in dispatch order. A worker touches only the chunk it
// received, until it signals done; everything else belongs to the caller.
type pipeline struct {
	workers, chunkBytes int
	wg                  sync.WaitGroup
	// jobs holds the dispatched chunks no worker has picked up yet; it
	// has room for every chunk in flight, so a send never blocks.
	jobs chan *chunk
	// ring bounds the chunks in flight: chunk i is ring[i%len(ring)], and
	// a slot is refilled once its chunk has been taken back.
	ring        []*chunk
	sent, taken int // chunks dispatched and taken back
	parts       [][]Event
	total       int
	err         error
}

// take returns the chunk to fill next: a new one until the ring is full,
// then the oldest in flight once it has been taken back.
func (p *pipeline) take() *chunk {
	if p.sent-p.taken == len(p.ring) {
		p.collect()
	}
	i := p.sent % len(p.ring)
	if p.ring[i] == nil {
		c := &chunk{done: make(chan struct{}, 1)}
		if p.sent > 0 {
			// The input fills more than one chunk, so this one will fill
			// too: allocate its buffer once instead of growing it. The
			// first grows from empty, which keeps a short input cheap.
			c.buf = make([]byte, 0, p.chunkBytes)
		}
		p.ring[i] = c
	}
	return p.ring[i]
}

// dispatch queues c for decoding, starting a worker while fewer than
// workers run.
func (p *pipeline) dispatch(c *chunk) {
	if p.sent < p.workers {
		p.wg.Add(1)
		go p.work()
	}
	p.sent++
	p.jobs <- c
}

// collect waits for the oldest chunk in flight, keeps its events and its
// error, and empties its line buffers for reuse.
func (p *pipeline) collect() {
	c := p.ring[p.taken%len(p.ring)]
	p.taken++
	<-c.done
	if c.err != nil && p.err == nil {
		p.err = c.err
	}
	p.parts = append(p.parts, c.events)
	p.total += len(c.events)
	c.buf, c.ends, c.events, c.err = c.buf[:0], c.ends[:0], nil, nil
}

// stop lets the workers finish what they hold and waits for them.
func (p *pipeline) stop() {
	close(p.jobs)
	p.wg.Wait()
}

// work decodes chunks until jobs closes. Each worker interns strings in
// its own table.
func (p *pipeline) work() {
	defer p.wg.Done()
	d := lineDecoder{strs: make(map[string]string)}
	for c := range p.jobs {
		d.decodeChunk(c)
		c.done <- struct{}{}
	}
}

// lineDecoder decodes one JSONL line at a time in a single pass over its
// bytes. One decoder serves one worker of one ParseJSONL call.
type lineDecoder struct {
	line []byte // the line being decoded; it aliases a chunk buffer
	pos  int
	// strs interns decoded strings. A trace repeats a few categories,
	// actors and tags on most of its records, so each distinct string is
	// copied out of the chunk buffers once per worker.
	strs map[string]string
	tags []Tag // scratch for the tags object being decoded
}

// decodeChunk decodes the non-blank lines of c into c.events, stopping at
// the first error.
func (d *lineDecoder) decodeChunk(c *chunk) {
	c.events = make([]Event, 0, len(c.ends))
	start := 0
	for i, end := range c.ends {
		line := c.buf[start:end]
		start = end
		if len(line) == 0 {
			continue
		}
		e, err := d.decode(line)
		if err != nil {
			c.err = fmt.Errorf("obs: line %d: %w", c.first+i, err)
			return
		}
		c.events = append(c.events, e)
	}
}

// decode decodes one non-blank line.
func (d *lineDecoder) decode(line []byte) (Event, error) {
	d.line, d.pos, d.tags = line, 0, d.tags[:0]
	var e Event
	d.space()
	if !d.null() {
		err := d.object(func() error {
			key, err := d.key()
			if err == nil {
				err = d.field(&e, key)
			}
			return err
		})
		if err != nil {
			return Event{}, err
		}
		if len(d.tags) > 0 {
			e.Tags = make([]Tag, len(d.tags))
			copy(e.Tags, d.tags)
		}
	}
	d.space()
	if d.pos < len(d.line) {
		return Event{}, fmt.Errorf("trailing data at byte %d", d.pos)
	}
	return e, nil
}

// field decodes the value of one top-level key into e. A null value
// leaves the field as it was, except that it clears the tags.
func (d *lineDecoder) field(e *Event, key []byte) error {
	var err error
	null := d.null()
	switch string(key) {
	case "t":
		if !null {
			// Time.UnmarshalJSON parses the string's raw bytes, escapes
			// and all; an RFC 3339 time has none.
			var body []byte
			if body, _, err = d.token(); err == nil {
				err = e.At.UnmarshalText(body)
			}
		}
	case "seq":
		if !null {
			e.Seq, err = d.uint()
		}
	case "span":
		if !null {
			var n uint64
			n, err = d.uint()
			e.Span = Span(n)
		}
	case "parent":
		if !null {
			var n uint64
			n, err = d.uint()
			e.Parent = Span(n)
		}
	case "cat":
		if !null {
			e.Cat, err = d.str()
		}
	case "actor":
		if !null {
			e.Actor, err = d.str()
		}
	case "msg":
		if !null {
			e.Msg, err = d.str()
		}
	case "tags":
		d.tags = d.tags[:0]
		if !null {
			err = d.object(d.tag)
		}
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// tag decodes one member of a tags object onto d.tags.
func (d *lineDecoder) tag() error {
	k, err := d.str()
	if err != nil {
		return err
	}
	if err := d.colon(); err != nil {
		return err
	}
	v, err := d.str()
	if err != nil {
		return fmt.Errorf("value of %q: %w", k, err)
	}
	d.tags = append(d.tags, Tag{K: k, V: v})
	return nil
}

// object walks the JSON object at d.pos, calling member at the start of
// each member; member consumes the key, the colon and the value.
func (d *lineDecoder) object(member func() error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	d.space()
	if d.pos < len(d.line) && d.line[d.pos] == '}' {
		d.pos++
		return nil
	}
	for {
		if err := member(); err != nil {
			return err
		}
		d.space()
		if d.pos == len(d.line) || d.line[d.pos] != ',' {
			return d.expect('}')
		}
		d.pos++
		d.space()
	}
}

// key decodes an object key and the colon after it. A plain key aliases
// the line.
func (d *lineDecoder) key() ([]byte, error) {
	start := d.pos
	key, plain, err := d.token()
	if err == nil && !plain {
		var s string
		err = json.Unmarshal(d.line[start:d.pos], &s)
		key = []byte(s)
	}
	if err != nil {
		return nil, err
	}
	return key, d.colon()
}

// str decodes the JSON string at d.pos. A plain body is the string's
// value and is interned; encoding/json decodes any other token, resolving
// its escapes and replacing invalid UTF-8.
func (d *lineDecoder) str() (string, error) {
	start := d.pos
	body, plain, err := d.token()
	switch {
	case err != nil:
		return "", err
	case plain:
		if s, ok := d.strs[string(body)]; ok {
			return s, nil
		}
		s := string(body)
		d.strs[s] = s
		return s, nil
	}
	var s string
	err = json.Unmarshal(d.line[start:d.pos], &s)
	return s, err
}

// token scans the JSON string at d.pos and returns the bytes between its
// quotes. plain reports that they hold no escape and are valid UTF-8, so
// they are the string's value as they stand.
func (d *lineDecoder) token() (body []byte, plain bool, err error) {
	if err := d.expect('"'); err != nil {
		return nil, false, err
	}
	start, ascii, escaped := d.pos, true, false
	for i := start; i < len(d.line); i++ {
		switch c := d.line[i]; {
		case c == '"':
			d.pos = i + 1
			body = d.line[start:i]
			return body, !escaped && (ascii || utf8.Valid(body)), nil
		case c == '\\':
			// The escaped byte cannot close the string; encoding/json
			// validates the escape when it decodes the token.
			escaped = true
			i++
		case c < 0x20:
			return nil, false, fmt.Errorf("control byte %#02x in string at byte %d", c, i)
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, fmt.Errorf("unterminated string at byte %d", start-1)
}

// uint decodes the JSON number at d.pos, which must be an unsigned
// integer that fits a uint64.
func (d *lineDecoder) uint() (uint64, error) {
	start := d.pos
	for d.pos < len(d.line) && strings.IndexByte("0123456789-+.eE", d.line[d.pos]) >= 0 {
		d.pos++
	}
	num := d.line[start:d.pos]
	switch {
	case len(num) == 0:
		return 0, d.unexpected("a number")
	case num[0] == '0' && len(num) > 1: // JSON has no leading zeros
		return 0, fmt.Errorf("invalid number %q", num)
	}
	return strconv.ParseUint(string(num), 10, 64)
}

// null consumes a JSON null at d.pos and reports whether there was one.
func (d *lineDecoder) null() bool {
	if len(d.line)-d.pos >= 4 && string(d.line[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

func (d *lineDecoder) colon() error {
	d.space()
	if err := d.expect(':'); err != nil {
		return err
	}
	d.space()
	return nil
}

// expect consumes the byte c.
func (d *lineDecoder) expect(c byte) error {
	if d.pos < len(d.line) && d.line[d.pos] == c {
		d.pos++
		return nil
	}
	return d.unexpected(strconv.QuoteRune(rune(c)))
}

func (d *lineDecoder) unexpected(want string) error {
	if d.pos == len(d.line) {
		return fmt.Errorf("want %s, got end of line", want)
	}
	return fmt.Errorf("want %s at byte %d, got %q", want, d.pos, d.line[d.pos])
}

// space skips JSON whitespace.
func (d *lineDecoder) space() {
	for d.pos < len(d.line) {
		switch d.line[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// Tag lookup helper: Get returns the value of the named tag and whether
// it is present.
func (e Event) Get(key string) (string, bool) {
	for _, t := range e.Tags {
		if t.K == key {
			return t.V, true
		}
	}
	return "", false
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// parseJSONLRef is the reference decoder ParseJSONL is checked against:
// encoding/json reflecting each line into jsonlEvent, with the same
// scanner framing, line limit and error prefix. It is the decoder
// ParseJSONL used before the one-pass line decoder replaced it.
func parseJSONLRef(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, Event{
			At: je.T, Seq: je.Seq, Cat: je.Cat, Actor: je.Actor, Msg: je.Msg,
			Span: Span(je.Span), Parent: Span(je.Parent), Tags: []Tag(je.Tags),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: line %d: scan: %w", lineNo+1, err)
	}
	return out, nil
}

// jsonlEvent mirrors the AppendJSONL wire shape for decoding.
type jsonlEvent struct {
	T      time.Time `json:"t"`
	Seq    uint64    `json:"seq"`
	Cat    string    `json:"cat"`
	Actor  string    `json:"actor"`
	Msg    string    `json:"msg"`
	Span   uint64    `json:"span"`
	Parent uint64    `json:"parent"`
	Tags   jsonTags  `json:"tags"`
}

// jsonTags decodes a JSON tags object into an ordered []Tag, walking the
// raw tokens so repeated keys and wire order survive.
type jsonTags []Tag

func (jt *jsonTags) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil { // JSON null: no tags
		*jt = nil
		return nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("tags: expected object, got %v", tok)
	}
	var out []Tag
	for dec.More() {
		kTok, err := dec.Token()
		if err != nil {
			return err
		}
		k, ok := kTok.(string)
		if !ok {
			return fmt.Errorf("tags: non-string key %v", kTok)
		}
		vTok, err := dec.Token()
		if err != nil {
			return err
		}
		v, ok := vTok.(string)
		if !ok {
			return fmt.Errorf("tags: non-string value %v for key %q", vTok, k)
		}
		out = append(out, Tag{K: k, V: v})
	}
	if _, err := dec.Token(); err != nil { // consume closing '}'
		return err
	}
	*jt = out
	return nil
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
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

// appendString appends a JSON-quoted string.
func appendString(b []byte, s string) []byte {
	q, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return append(b, `""`...)
	}
	return append(b, q...)
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

// jsonTags decodes a JSON tags object into an ordered []Tag. A
// map[string]string here would silently collapse repeated keys (events
// legally carry them — two `target` tags on one fan-out record, say)
// and shuffle emission order; walking the raw tokens keeps the decode a
// faithful inverse of AppendJSONL.
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

// ParseJSONL decodes a JSONL event stream produced by WriteJSONL. Tags
// come back in wire order with repeated keys intact, so
// WriteJSONL → ParseJSONL → WriteJSONL is byte-identical. Blank lines
// are skipped; a malformed or over-long line, or a timestamp WriteJSONL
// could not re-encode, fails with its line number.
func ParseJSONL(r io.Reader) ([]Event, error) {
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
		// AppendJSONL writes t in UTC, and RFC 3339 has four-digit years
		// only: an offset that carries the instant past them would export
		// a line no parser reads back.
		if y := je.T.UTC().Year(); y < 0 || y > 9999 {
			return nil, fmt.Errorf("obs: line %d: t %s is outside years 0000-9999 in UTC", lineNo, je.T.Format(time.RFC3339Nano))
		}
		out = append(out, Event{
			At: je.T, Seq: je.Seq, Cat: je.Cat, Actor: je.Actor, Msg: je.Msg,
			Span: Span(je.Span), Parent: Span(je.Parent), Tags: []Tag(je.Tags),
		})
	}
	if err := sc.Err(); err != nil {
		// The scanner stops at the first bad line: the one after the
		// last line it delivered.
		return nil, fmt.Errorf("obs: line %d: scan: %w", lineNo+1, err)
	}
	return out, nil
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

package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserveNaNPanics(t *testing.T) {
	h := NewRegistry().Histogram("test.nan.hist", LinearBuckets(1, 1, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("Observe(NaN) did not panic")
		}
		if h.Count() != 0 || h.Sum() != 0 {
			t.Fatalf("NaN observation mutated histogram: count=%d sum=%g", h.Count(), h.Sum())
		}
	}()
	h.Observe(math.NaN())
}

func TestParseJSONLPreservesDuplicateTags(t *testing.T) {
	e := Event{
		At: eventAt, Seq: 1, Cat: "spread", Actor: "WS-01", Msg: "fan-out",
		Tags: []Tag{T("target", "WS-02"), T("target", "WS-03"), T("vector", "psexec")},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Event{e}); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ParseJSONL(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Tags) != 3 {
		t.Fatalf("duplicate tag collapsed: got %+v", got)
	}
	for i, want := range e.Tags {
		if got[0].Tags[i] != want {
			t.Fatalf("tag %d: got %v want %v (order or duplicates lost)", i, got[0].Tags[i], want)
		}
	}
	// The decode is a faithful inverse: re-encoding reproduces the bytes.
	var again bytes.Buffer
	if err := WriteJSONL(&again, got); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatalf("re-encode drifted:\n got %s want %s", again.String(), first)
	}
}

func TestParseJSONLScanErrorReportsLine(t *testing.T) {
	// Line 3 exceeds the 1 MiB scanner limit.
	input := "{\"t\":\"2010-06-01T08:30:00Z\",\"seq\":1,\"cat\":\"c\",\"actor\":\"a\",\"msg\":\"m\"}\n" +
		"\n" +
		strings.Repeat("x", 2<<20) + "\n"
	_, err := ParseJSONL(strings.NewReader(input))
	if err == nil {
		t.Fatal("over-long line parsed without error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("scan error omits the line number: %v", err)
	}
}

// TestJSONLRoundTripProperty drives WriteJSONL → ParseJSONL with
// generated events — empty strings, quotes, control characters, unicode
// in keys and values, repeated keys — and asserts every field and the
// full tag sequence survive.
func TestJSONLRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{
		"", "plain", `quote"inside`, "back\\slash", "tab\tchar", "newline\nchar",
		"nul\x00byte", "ctrl\x1b[0m", "händler", "участок", "目标", "🐙", " space ",
		"a=b,c", `{"json":"ish"}`,
	}
	pick := func() string { return alphabet[rng.Intn(len(alphabet))] }
	base := time.Date(2012, 4, 23, 6, 0, 0, 0, time.UTC)

	events := make([]Event, 200)
	for i := range events {
		e := Event{
			At:    base.Add(time.Duration(rng.Intn(1<<20)) * time.Millisecond),
			Seq:   uint64(i + 1),
			Cat:   pick(),
			Actor: pick(),
			Msg:   pick(),
		}
		if rng.Intn(2) == 0 {
			e.Span = Span(rng.Intn(50))
			if e.Span != 0 && rng.Intn(2) == 0 {
				e.Parent = Span(rng.Intn(int(e.Span) + 1))
			}
		}
		nTags := rng.Intn(5)
		for j := 0; j < nTags; j++ {
			e.Tags = append(e.Tags, T(pick(), pick()))
		}
		if nTags > 0 && rng.Intn(3) == 0 { // force a duplicate key
			e.Tags = append(e.Tags, T(e.Tags[0].K, pick()))
		}
		events[i] = e
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i, want := range events {
		g := got[i]
		if !g.At.Equal(want.At) || g.Seq != want.Seq || g.Cat != want.Cat ||
			g.Actor != want.Actor || g.Msg != want.Msg ||
			g.Span != want.Span || g.Parent != want.Parent {
			t.Fatalf("event %d fields: got %+v want %+v", i, g, want)
		}
		if len(g.Tags) != len(want.Tags) {
			t.Fatalf("event %d tag count: got %v want %v", i, g.Tags, want.Tags)
		}
		for j := range want.Tags {
			if g.Tags[j] != want.Tags[j] {
				t.Fatalf("event %d tag %d: got %v want %v", i, j, g.Tags[j], want.Tags[j])
			}
		}
	}
}

// FuzzParseJSONL feeds arbitrary bytes to the trace-export parser. It
// must never panic, and whatever it accepts must settle after one
// re-encode: parse → WriteJSONL → parse → WriteJSONL is byte-stable.
func FuzzParseJSONL(f *testing.F) {
	for _, seed := range []string{
		`{"t":"2010-06-01T00:00:00Z","seq":1,"cat":"user","actor":"CORP-WS-01","msg":"users.session.start admin","span":1,"tags":{"exp":"D5","vector":"user","profile":"admin","user":"emp-corp-ws-01"}}`,
		`{"t":"2010-06-01T00:00:00Z","seq":3,"cat":"user","actor":"CORP-WS-02","msg":"users.session.start office","span":2,"tags":{"exp":"D5","vector":"user","profile":"office","user":"emp-corp-ws-02"}}`,
		`{"t":"2010-06-01T00:00:00Z","seq":5,"cat":"alert","actor":"IIS-01","msg":"alert: vpn-login-external","tags":{"rule":"vpn-login-external"}}`,
		`{"t":"2010-06-01T00:00:00Z","seq":7,"cat":"alert","actor":"IIS-01","msg":"alert: webshell-write","parent":2,"tags":{"rule":"webshell-write"}}`,
		// A non-UTC offset, and repeated tag keys.
		`{"t":"2010-06-01T08:30:00.25+01:00","seq":9,"cat":"spread","actor":"WS-01","msg":"fan-out","span":4,"parent":3,"tags":{"target":"WS-02","target":"WS-03"}}`,
		// Offsets that carry the UTC instant out of RFC 3339's years.
		`{"t":"9999-12-31T23:30:00-01:00","seq":1,"cat":"c","actor":"a","msg":"m"}`,
		`{"t":"0000-01-01T00:30:00+01:00","seq":1,"cat":"c","actor":"a","msg":"m"}`,
		"\n\n" + `{"t":"2010-06-01T00:00:00Z","seq":1,"cat":"","actor":"","msg":"","tags":null}` + "\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, events); err != nil {
			t.Fatal(err)
		}
		again, err := ParseJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of WriteJSONL output failed: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encode drifted:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}

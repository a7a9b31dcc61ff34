package sim

import (
	"fmt"
	"io"
	"strings"
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
	CatKernel    Category = "kernel"    // scheduler internals (WithKernelEvents)
	CatAlert     Category = "alert"     // detection rule firing (internal/detect)
	CatUser      Category = "user"      // benign user activity (internal/users)
)

// Record is one structured trace entry: a timestamped, tagged event.
// Seq is assigned by the owning Trace and, with At, gives records a
// total order that survives export and concatenation.
//
// Span attributes the record to a causal episode (zero = unattributed);
// Parent is non-zero only on the record that opens the span, where it
// names the causing span.
type Record struct {
	At      time.Time
	Seq     uint64
	Cat     Category
	Actor   string // emitting component, e.g. host name or module name
	Message string
	Span    obs.Span
	Parent  obs.Span
	Tags    []obs.Tag
}

// Event converts the record to its export form.
func (r Record) Event() obs.Event {
	return obs.Event{
		At: r.At, Seq: r.Seq, Cat: string(r.Cat), Actor: r.Actor, Msg: r.Message,
		Span: r.Span, Parent: r.Parent, Tags: r.Tags,
	}
}

func (r Record) String() string {
	return fmt.Sprintf("%s [%s] %s: %s", r.At.Format(time.RFC3339), r.Cat, r.Actor, r.Message)
}

// Trace is a bounded ring buffer of Records plus running per-category
// counters. Counters are never evicted, so fleet-scale runs can rely on
// counts even after old records rotate out.
//
// Span-opening records (the first record of each causal episode, emitted
// by Kernel.OpenSpan) are additionally retained in an unbounded side
// index so ring eviction at fleet scale never orphans a provenance
// parent. Ordinary records are stamped with the ambient span installed
// by the kernel's causal context.
type Trace struct {
	records []Record
	next    int
	full    bool
	seq     uint64
	counts  map[Category]int
	muted   bool

	ambient obs.Span // stamped onto every Emit/Add record
	spans   []Record // span-opening records, seq-ascending, never evicted

	sinks []func(Record) // live subscribers, called on every record
}

// NewTrace returns a trace holding at most capacity records.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{
		records: make([]Record, capacity),
		counts:  make(map[Category]int),
	}
}

// SetMuted disables (true) or enables (false) record retention. Counters
// still accumulate while muted; benchmarks use this to avoid log churn.
func (t *Trace) SetMuted(m bool) { t.muted = m }

// Live reports whether an emitted record would be observed by anyone:
// retained (unmuted) or forwarded to a subscriber. High-volume emitters
// of purely observational records — the benign user-activity layer emits
// one breadcrumb per action across tens of thousands of hosts — check
// this before paying for message formatting, so muted fleet benchmarks
// skip the cost entirely. Substrate events must NOT be skipped on it:
// their counters are part of the simulation. A hot substrate emitter may
// call Tally instead of Emit while the trace is not live.
func (t *Trace) Live() bool { return !t.muted || len(t.sinks) > 0 }

// Tally advances the category counter and the sequence number exactly as
// Emit does, without building a record. While the trace is not live, Emit
// does nothing else, so a substrate emitter that calls Tally then skips
// only its message formatting and tags:
//
//	if tr.Live() {
//		tr.Emit(at, cat, actor, fmt.Sprintf(...), tags...)
//	} else {
//		tr.Tally(cat)
//	}
func (t *Trace) Tally(cat Category) {
	t.counts[cat]++
	t.seq++
}

// Seq returns the sequence number of the last record emitted or tallied.
func (t *Trace) Seq() uint64 { return t.seq }

// Subscribe registers a sink called synchronously with every record as
// it is emitted — ring eviction and muting do not apply, so a live
// detector sees the full stream even at fleet scale. Sinks run on the
// emitting goroutine in emission order; a sink that emits back into the
// trace (an alert, say) must guard against re-entering itself.
func (t *Trace) Subscribe(fn func(Record)) { t.sinks = append(t.sinks, fn) }

// publish fans a freshly-stamped record out to subscribers.
func (t *Trace) publish(r Record) {
	for _, fn := range t.sinks {
		fn(r)
	}
}

// Add appends a record built from a format string.
func (t *Trace) Add(at time.Time, cat Category, actor, format string, args ...any) {
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
	t.counts[cat]++
	t.seq++
	rec := Record{At: at, Seq: t.seq, Cat: cat, Actor: actor, Message: msg, Span: t.ambient, Tags: tags}
	if !t.muted {
		t.records[t.next] = rec
		t.next++
		if t.next == len(t.records) {
			t.next = 0
			t.full = true
		}
	}
	if len(t.sinks) > 0 {
		t.publish(rec)
	}
}

// EmitSpan appends the record that opens causal episode span, caused by
// parent (zero for a root). Opening records are retained in the
// unbounded span index — not the ring — so provenance reconstruction
// can always resolve parents even after ring eviction.
func (t *Trace) EmitSpan(at time.Time, cat Category, actor, msg string, span, parent obs.Span, tags ...obs.Tag) {
	t.counts[cat]++
	t.seq++
	rec := Record{
		At: at, Seq: t.seq, Cat: cat, Actor: actor, Message: msg,
		Span: span, Parent: parent, Tags: tags,
	}
	if !t.muted {
		t.spans = append(t.spans, rec)
	}
	if len(t.sinks) > 0 {
		t.publish(rec)
	}
}

// Count returns how many records of the category were ever added.
func (t *Trace) Count(cat Category) int { return t.counts[cat] }

// Records returns retained records in chronological order: the ring
// contents merged with the span index by sequence number.
func (t *Trace) Records() []Record {
	var ring []Record
	if !t.full {
		ring = t.records[:t.next]
	} else {
		ring = make([]Record, 0, len(t.records))
		ring = append(ring, t.records[t.next:]...)
		ring = append(ring, t.records[:t.next]...)
	}
	if len(t.spans) == 0 {
		out := make([]Record, len(ring))
		copy(out, ring)
		return out
	}
	// Two-way merge: both slices are seq-ascending.
	out := make([]Record, 0, len(ring)+len(t.spans))
	i, j := 0, 0
	for i < len(ring) && j < len(t.spans) {
		if ring[i].Seq < t.spans[j].Seq {
			out = append(out, ring[i])
			i++
		} else {
			out = append(out, t.spans[j])
			j++
		}
	}
	out = append(out, ring[i:]...)
	out = append(out, t.spans[j:]...)
	return out
}

// setAmbient installs the span stamped onto subsequent Emit/Add records.
func (t *Trace) setAmbient(s obs.Span) { t.ambient = s }

// Filter returns retained records matching the category, in order.
func (t *Trace) Filter(cat Category) []Record {
	var out []Record
	for _, r := range t.Records() {
		if r.Cat == cat {
			out = append(out, r)
		}
	}
	return out
}

// Find returns retained records whose message contains substr.
func (t *Trace) Find(substr string) []Record {
	var out []Record
	for _, r := range t.Records() {
		if strings.Contains(r.Message, substr) {
			out = append(out, r)
		}
	}
	return out
}

// Dump renders all retained records, one per line.
func (t *Trace) Dump() string {
	var b strings.Builder
	for _, r := range t.Records() {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Events returns retained records in chronological order in their
// export form.
func (t *Trace) Events() []obs.Event {
	recs := t.Records()
	out := make([]obs.Event, len(recs))
	for i, r := range recs {
		out[i] = r.Event()
	}
	return out
}

// WriteJSONL exports the retained records as JSON lines. Only virtual
// time appears in the output, so equal-seed runs export identical bytes.
func (t *Trace) WriteJSONL(w io.Writer) error {
	return obs.WriteJSONL(w, t.Events())
}

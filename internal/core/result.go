package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
)

// Metric is one measured quantity of an experiment.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is the outcome of one experiment run (one figure or claim from
// the paper).
type Result struct {
	ID      string
	Title   string
	Paper   string // what the paper reports, for side-by-side rendering
	Summary string // one-line measured outcome, rendered into EXPERIMENTS.md
	Metrics []Metric
	Notes   []string
	// Blocks are preformatted multi-line artefacts (tables, matrices)
	// appended to the generated report as fenced code blocks.
	Blocks []string
	Pass   bool

	// Obs is the merged metrics snapshot of every kernel the experiment
	// drove (see CaptureObs).
	Obs obs.Snapshot
	// Events are the retained trace records of those kernels, each tagged
	// exp=<ID>, in capture order.
	Events []obs.Event

	// spanBase offsets span IDs of later-captured kernels so multi-world
	// experiments keep span uniqueness within the result.
	spanBase uint64
}

func (r *Result) metric(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) summaryf(format string, args ...any) {
	r.Summary = fmt.Sprintf(format, args...)
}

func (r *Result) block(s string) {
	r.Blocks = append(r.Blocks, strings.TrimRight(s, "\n"))
}

// CaptureObs folds each kernel's telemetry into the result: registry
// snapshots merge into Obs, retained trace records append to Events
// tagged with the experiment ID. Multi-world experiments call it once
// per world, in a fixed order; each kernel's span IDs are shifted past
// the previous kernels' allocations so the merged stream keeps span
// uniqueness (kernels allocate 1,2,3,… independently).
func (r *Result) CaptureObs(ks ...*sim.Kernel) {
	for _, k := range ks {
		r.Events = append(r.Events, r.capture(k)...)
	}
}

// capture folds one kernel into the result and returns its retained
// trace records, span IDs shifted past the kernels captured before it
// and tagged exp=<ID>.
func (r *Result) capture(k *sim.Kernel) []obs.Event {
	// Flush the wall-clock telemetry tail (no-op without a probe); this
	// reads kernel state but writes nothing deterministic.
	k.FlushProbe()
	r.Obs.Merge(k.Metrics().Snapshot())
	events := k.Trace().Events()
	if base := obs.Span(r.spanBase); base != 0 {
		for i := range events {
			if events[i].Span != 0 {
				events[i].Span += base
			}
			if events[i].Parent != 0 {
				events[i].Parent += base
			}
		}
	}
	r.spanBase += k.SpanCount()
	obs.TagAll(events, obs.T("exp", r.ID))
	return events
}

// CaptureObsMerged is CaptureObs for partitioned worlds (DESIGN.md
// §14): metrics snapshots merge and span IDs anchor in partition order
// exactly as CaptureObs would, but instead of concatenating whole
// streams the retained trace records interleave into one time-ordered
// stream — a k-way merge keyed (vtime, partition index, record seq).
// Each kernel's stream is already vtime-nondecreasing in record order,
// so the merge is well-defined, and the key is pure simulation state:
// the merged bytes are invariant under the partition worker count.
func (r *Result) CaptureObsMerged(ks ...*sim.Kernel) {
	streams := make([][]obs.Event, len(ks))
	total := 0
	for i, k := range ks {
		streams[i] = r.capture(k)
		total += len(streams[i])
	}
	merged := make([]obs.Event, 0, total)
	idx := make([]int, len(streams))
	for len(merged) < total {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			// Strict Before keeps ties on the lowest partition index —
			// the partition-anchor component of the merge key.
			if best == -1 || s[idx[i]].At.Before(streams[best][idx[best]].At) {
				best = i
			}
		}
		merged = append(merged, streams[best][idx[best]])
		idx[best]++
	}
	r.Events = append(r.Events, merged...)
}

// provenanceTreeLimit caps the rendered tree; larger forests (C7 runs
// 30,000 hosts) report stats only.
const provenanceTreeLimit = 40

// attachProvenance appends the causal-forest summary block once the
// experiment has captured all its kernels. No-op for span-free streams.
func (r *Result) attachProvenance() {
	f := provenance.Build(r.Events)
	if len(f.Nodes) == 0 {
		return
	}
	var b strings.Builder
	b.WriteString(provenance.RenderStats(f.Stats()))
	if len(f.Nodes) <= provenanceTreeLimit {
		b.WriteString("\n")
		f.Text(&b)
	}
	r.block(b.String())
}

// Metric returns the named metric's value (and whether it exists).
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// MustMetric returns the named metric or panics (experiment authoring
// error).
func (r *Result) MustMetric(name string) float64 {
	v, ok := r.Metric(name)
	if !ok {
		panic(fmt.Sprintf("core: experiment %s has no metric %q", r.ID, name))
	}
	return v
}

// Render produces the experiment's report block.
func (r *Result) Render() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "[%s] %s — %s\n", r.ID, r.Title, status)
	if r.Paper != "" {
		fmt.Fprintf(&b, "  paper: %s\n", r.Paper)
	}
	for _, m := range r.Metrics {
		unit := m.Unit
		if unit != "" {
			unit = " " + unit
		}
		fmt.Fprintf(&b, "  %-38s %14.4g%s\n", m.Name, m.Value, unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Runner executes one experiment run: r carries the seed and the
// configuration, and its worlds join r through WorldConfig.Run.
type Runner func(r *Run) (*Result, error)

// Experiments indexes every experiment by ID (see DESIGN.md).
var Experiments = map[string]Runner{
	"F1":  RunF1StuxnetOperation,
	"F2":  RunF2WPADMitm,
	"F3":  RunF3CertForging,
	"F4":  RunF4CnCPlatform,
	"F5":  RunF5CnCServer,
	"F6":  RunF6ShamoonComponents,
	"C1":  RunC1ZeroDays,
	"C2":  RunC2Centrifuge,
	"C3":  RunC3Targeting,
	"C4":  RunC4FlameSize,
	"C5":  RunC5ExfilVolume,
	"C6":  RunC6Suicide,
	"C7":  RunC7AramcoScale,
	"C8":  RunC8JPEGBug,
	"C9":  RunC9Reporter,
	"C10": RunC10AirGap,
	"C11": RunC11Bluetooth,
	"T1":  RunT1Trends,
	"A1":  RunA1AblationPatching,
	"A2":  RunA2AblationAdvisory,
	"A3":  RunA3EpidemicCurve,
	"E1":  RunE1DuquTargeting,
	"E2":  RunE2GaussGodel,
	"E3":  RunE3Lineage,
	"E4":  RunE4Sinkhole,
	"R1":  RunR1StuxnetTakedownP2P,
	"R2":  RunR2FlameDomainAgility,
	"R3":  RunR3ShamoonBlackout,
	"R4":  RunR4CrashPersistence,
	"R5":  RunR5AVAttrition,
	"D1":  RunD1CNIDetection,
	"D2":  RunD2CrossCampaign,
	"D3":  RunD3FalsePositives,
	"D4":  RunD4NoisyPrecision,
	"D5":  RunD5NoiseFloor,
}

// ExperimentIDs returns all experiment IDs in report order.
func ExperimentIDs() []string {
	return []string{
		"F1", "F2", "F3", "F4", "F5", "F6",
		"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11",
		"T1", "A1", "A2", "A3",
		"E1", "E2", "E3", "E4",
		"R1", "R2", "R3", "R4", "R5",
		"D1", "D2", "D3", "D4", "D5",
	}
}

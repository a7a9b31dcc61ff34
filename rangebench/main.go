// Command rangebench is the repository benchmark. It drives three
// workloads through the public functions of internal/core, internal/sim,
// internal/detect, internal/obs and internal/provenance, times every call
// from outside the program, checks every pass for correctness and prints
// each metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash rangebench/run.sh --workload fleet-wipe --seed 1 --seconds 15 --trace 0
//
// Every pass runs in a child process of its own, so the peak RSS, heap
// and garbage-collector state a pass reports belong to that pass alone.
// With --trace 0 the benchmark reports the end-to-end metrics (medians
// over passes). With --trace 1 it alternates untraced and traced passes
// and reports the per-layer metrics of the traced ones: a traced pass
// keeps a span around every call, enables the runstats collector and
// takes a CPU profile. Spans and the CPU table are written under
// .bench_build/trace. meta.json holds the metric definitions, the
// layer-to-metric map and the determinism digests for the default seed;
// baseline.json holds the figures measured when the benchmark was
// defined, with the machine they came from.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/runstats"
)

//go:embed meta.json
var metaJSON []byte

type metricDef struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Workloads []string `json:"workloads"` // empty: every workload
	Exact     bool     `json:"exact"`
}

func (d metricDef) appliesTo(workload string) bool {
	if len(d.Workloads) == 0 {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

type meta struct {
	DefaultSeed uint64                  `json:"default_seed"`
	Workloads   []struct{ Name string } `json:"workloads"`
	Digests     map[string]string       `json:"digests"`
	EndToEnd    []metricDef             `json:"end_to_end"`
	PerLayer    []metricDef             `json:"per_layer"`
}

// Fewest passes a run makes, whatever --seconds says, so that a median
// is always taken over several passes.
const (
	minPasses       = 3
	minTracedPasses = 1
)

const traceDir = ".bench_build/trace"

func main() {
	workload := flag.String("workload", "", "workload: fleet-wipe, noisy-enclave or registry")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "how long to keep starting passes")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	child := flag.String("child", "", "internal: run one pass in this process (pass, traced or reference)")
	passName := flag.String("pass", "", "internal: trace ID of the pass")
	flag.Parse()

	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		fatalf("meta.json: %v", err)
	}
	known := false
	for _, w := range m.Workloads {
		known = known || w.Name == *workload
	}
	if !known {
		fatalf("unknown workload %q", *workload)
	}
	if *child != "" {
		if err := runChild(*child, *workload, *seed, *passName); err != nil {
			fatalf("%s pass: %v", *workload, err)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if err := bench(&m, *workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rangebench: "+format+"\n", args...)
	os.Exit(1)
}

// runChild runs one pass (or the fleet-wipe reference) and prints its
// result as JSON. The reference, when the workload needs one, arrives on
// standard input.
func runChild(kind, workload string, seed uint64, name string) error {
	var out any
	switch kind {
	case "reference":
		ref, err := runReference(seed)
		if err != nil {
			return err
		}
		out = ref
	case "pass", "traced":
		var ref reference
		if workload == "fleet-wipe" {
			if err := json.NewDecoder(os.Stdin).Decode(&ref); err != nil {
				return fmt.Errorf("read reference: %w", err)
			}
		}
		traced := kind == "traced"
		// registry's setup_s is the program's own world-build and
		// fleet-build phase time, which only the collector records.
		if traced || workload == "registry" {
			runstats.Enable()
		}
		var profile bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&profile); err != nil {
				return fmt.Errorf("start cpu profile: %w", err)
			}
		}
		rec := newRecorder(traced, name)
		p, err := runPass(workload, seed, rec, &ref)
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return err
		}
		if traced {
			shares, samples, err := cpuShares(profile.Bytes())
			if err != nil {
				return err
			}
			for mod, share := range shares {
				p.Layer["cpu_share."+mod] = share
			}
			p.CPUSamples = samples
			p.Layer["sim.queue.max_depth"] = float64(runstats.Active().Manifest().Kernel.MaxQueueDepth)
			p.Spans = rec.spans
		}
		out = p
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawn runs this binary as a child and decodes its JSON result. It
// returns the child's peak RSS in MB.
func spawn(kind, workload string, seed uint64, name string, stdin []byte, into any) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-pass", name)
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s %s: %w", kind, name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), into); err != nil {
		return 0, fmt.Errorf("%s %s: decode result: %w", kind, name, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return rss, nil
}

// bench runs passes until the time is up and prints the result.
func bench(m *meta, workload string, seed uint64, window time.Duration, traced bool) error {
	var refJSON []byte
	if workload == "fleet-wipe" {
		var ref reference
		if _, err := spawn("reference", workload, seed, "reference", nil, &ref); err != nil {
			return err
		}
		refJSON, _ = json.Marshal(ref) // a map of floats and a string always encodes
	}

	var plain, withTrace []*passResult
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minPasses
		if traced {
			enough = len(plain) >= minTracedPasses && len(withTrace) >= minTracedPasses
		}
		if enough && time.Since(start) >= window {
			break
		}
		kind := "pass"
		if traced && i%2 == 1 {
			kind = "traced"
		}
		name := fmt.Sprintf("%s-seed%d-%s%d", workload, seed, kind, i)
		p := &passResult{}
		rss, err := spawn(kind, workload, seed, name, refJSON, p)
		if err != nil {
			return err
		}
		p.peakRSSMB = rss
		fmt.Fprintf(os.Stderr, "rangebench: %s: setup %.4f s, run %.4f s, wall %.4f s, %.0f events, peak RSS %.1f MB\n",
			name, p.SetupS, p.RunS, p.WallS, p.Events, rss)
		if kind == "traced" {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}

	all := append(append([]*passResult{}, plain...), withTrace...)
	check(m, workload, seed, all)
	attempted, failed := 0, 0
	for _, p := range all {
		attempted += p.Ops
		failed += min(p.Ops, p.FailedOps)
		for _, f := range p.Failures {
			fmt.Fprintln(os.Stderr, "rangebench: FAIL:", f)
		}
	}

	metrics := map[string]result{}
	defs := m.EndToEnd
	if traced {
		defs = m.PerLayer
		if err := layerMetrics(m, workload, seed, plain, withTrace, metrics); err != nil {
			return err
		}
	} else {
		endToEnd(plain, metrics)
	}
	fmt.Printf("workload %s seed %d: %d untraced and %d traced passes in %.1f s\n",
		workload, seed, len(plain), len(withTrace), time.Since(start).Seconds())
	out := map[string]result{}
	for _, d := range defs {
		r, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Unit = d.Unit
		out[d.Name] = r
		if d.appliesTo(workload) {
			fmt.Printf("%-40s %16.6g %s\n", d.Name, r.Value, d.Unit)
		}
	}
	fmt.Printf("%-40s %16.6g %s\n", "fail_ratio", float64(failed)/float64(max(1, attempted)), "ratio")
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]result `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type result struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check compares every pass with the recorded digest (default seed) or
// with the first pass (any other seed), and every exact per-layer count
// with the first pass. A mismatch fails the pass.
func check(m *meta, workload string, seed uint64, passes []*passResult) {
	want := passes[0].Digest
	if seed == m.DefaultSeed {
		want = m.Digests[workload]
	}
	for _, p := range passes {
		if p.Digest != want {
			p.failf("%s: digest %s, want %s", workload, p.Digest, want)
			p.FailedOps = p.Ops
		}
		for _, d := range m.PerLayer {
			if !d.Exact || !d.appliesTo(workload) {
				continue
			}
			if got, first := p.Layer[d.Name], passes[0].Layer[d.Name]; got != first {
				p.failf("%s: exact count %s = %v, first pass had %v", workload, d.Name, got, first)
				p.FailedOps = max(p.FailedOps, 1)
			}
		}
	}
}

func endToEnd(passes []*passResult, out map[string]result) {
	pick := func(name string, f func(p *passResult) float64) {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		out[name] = result{Value: median(vs)}
	}
	pick("setup_s", func(p *passResult) float64 { return p.SetupS })
	pick("run_s", func(p *passResult) float64 { return p.RunS })
	pick("wall_s", func(p *passResult) float64 { return p.WallS })
	pick("run_ns_per_event", func(p *passResult) float64 { return p.RunS * 1e9 / p.Events })
	pick("ns_per_host_event", func(p *passResult) float64 { return p.WallS * 1e9 / p.Events })
	pick("peak_rss_mb", func(p *passResult) float64 { return p.peakRSSMB })
	pick("alloc_mb", func(p *passResult) float64 { return float64(p.AllocBytes) / 1e6 })
}

// layerMetrics takes the median of every per-layer metric over the
// traced passes, reports tracing overhead, and writes the spans and the
// CPU table. Metrics of layers a workload does not exercise read 0.
func layerMetrics(m *meta, workload string, seed uint64, plain, traced []*passResult, out map[string]result) error {
	declared := map[string]bool{}
	for _, d := range m.PerLayer {
		declared[d.Name] = true
	}
	for _, p := range traced {
		for name, v := range p.Layer {
			if mod, ok := strings.CutPrefix(name, "cpu_share."); ok && !declared[name] {
				delete(p.Layer, name)
				p.Layer["cpu_share.other"] += v
				fmt.Fprintf(os.Stderr, "rangebench: module %s has no cpu_share metric; counted as other\n", mod)
			}
		}
	}
	for _, d := range m.PerLayer {
		out[d.Name] = result{}
		if !d.appliesTo(workload) || d.Name == "trace.overhead_s" {
			continue
		}
		vs := make([]float64, len(traced))
		for i, p := range traced {
			v, ok := p.Layer[d.Name]
			if !ok && !strings.HasPrefix(d.Name, "cpu_share.") {
				return fmt.Errorf("%s did not report %s", workload, d.Name)
			}
			vs[i] = v
		}
		out[d.Name] = result{Value: median(vs)}
	}
	for name := range traced[0].Layer {
		if !declared[name] {
			return fmt.Errorf("%s reported %s, which meta.json does not declare", workload, name)
		}
	}
	wall := func(ps []*passResult) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = p.WallS
		}
		return median(vs)
	}
	out["trace.overhead_s"] = result{Value: wall(traced) - wall(plain)}
	return writeTrace(workload, seed, traced)
}

func writeTrace(workload string, seed uint64, traced []*passResult) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", workload, seed))
	var spans bytes.Buffer
	enc := json.NewEncoder(&spans)
	for _, p := range traced {
		for _, s := range p.Spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := os.WriteFile(base+".spans.jsonl", spans.Bytes(), 0o644); err != nil {
		return err
	}
	var table strings.Builder
	for i, p := range traced {
		fmt.Fprintf(&table, "pass %d: %d samples over %.2f s wall\n", i, p.CPUSamples, p.WallS)
		var mods []string
		for name := range p.Layer {
			if strings.HasPrefix(name, "cpu_share.") {
				mods = append(mods, name)
			}
		}
		sort.Slice(mods, func(a, b int) bool { return p.Layer[mods[a]] > p.Layer[mods[b]] })
		for _, name := range mods {
			fmt.Fprintf(&table, "  %-32s %6.2f%%\n", strings.TrimPrefix(name, "cpu_share."), 100*p.Layer[name])
		}
	}
	if err := os.WriteFile(base+".cpu.txt", []byte(table.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rangebench: spans in %s.spans.jsonl, CPU table in %s.cpu.txt\n", base, base)
	return nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

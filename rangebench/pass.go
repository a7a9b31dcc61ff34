package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/malware/shamoon"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/runstats"
	"repro/internal/sim"
	"repro/internal/users"
)

// Workload sizes. They are part of the benchmark definition: changing
// one changes every number the benchmark reports.
const (
	fleetHosts    = 30000
	fleetSites    = 6
	enclaveHosts  = 2000
	enclaveWindow = 14 * 24 * time.Hour
)

// passResult is what one pass reports to the parent process.
type passResult struct {
	SetupS     float64            `json:"setup_s"`
	RunS       float64            `json:"run_s"`
	WallS      float64            `json:"wall_s"`
	Events     float64            `json:"events"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Digest     string             `json:"digest"`
	Ops        int                `json:"ops"`
	FailedOps  int                `json:"failed_ops"`
	Failures   []string           `json:"failures,omitempty"`
	Layer      map[string]float64 `json:"layer"`
	Spans      []span             `json:"spans,omitempty"`
	CPUSamples int                `json:"cpu_samples,omitempty"`

	peakRSSMB float64 // filled in by the parent from the child's rusage
}

func (p *passResult) failf(format string, args ...any) {
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

// reference is the shipped C7 runner's answer for a seed; every
// fleet-wipe pass must reproduce it.
type reference struct {
	Metrics map[string]float64 `json:"metrics"`
	Obs     string             `json:"obs_sha256"`
}

// fleetOptions are the options core.RunAramcoPartitionedN passes to
// core.BuildAramcoFleet, with both worker pools as wide as the machine.
func fleetOptions() core.AramcoFleetOptions {
	n := runtime.NumCPU()
	return core.AramcoFleetOptions{
		Workstations: fleetHosts,
		Sites:        fleetSites,
		DocsPerHost:  2,
		SpreadEvery:  2 * time.Hour,
		LeanImages:   true,
		BuildWorkers: n,
		Activity:     users.MixNone,
		MuteTrace:    true,
		Workers:      n,
	}
}

func runReference(seed uint64) (*reference, error) {
	n := runtime.NumCPU()
	res, err := core.RunAramcoPartitionedN(seed, fleetHosts, fleetSites, n, n, false)
	if err != nil {
		return nil, err
	}
	ref := &reference{Metrics: map[string]float64{}, Obs: sha(res.Obs.Text())}
	for _, m := range res.Metrics {
		ref.Metrics[m.Name] = m.Value
	}
	return ref, nil
}

// runPass executes one pass of the workload. A nil error means the pass
// ran; failed correctness checks are reported in the result.
func runPass(workload string, seed uint64, rec *recorder, ref *reference) (*passResult, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	p := &passResult{Layer: map[string]float64{}}
	root, endRoot := rec.begin("pass."+workload, 0)
	var err error
	switch workload {
	case "fleet-wipe":
		err = fleetWipe(p, seed, rec, root, ref)
	case "noisy-enclave":
		err = noisyEnclave(p, seed, rec, root)
	case "registry":
		err = registry(p, seed, rec, root)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	p.WallS = endRoot()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.AllocBytes = after.TotalAlloc - before.TotalAlloc
	p.Layer["gc.cycles"] = float64(after.NumGC - before.NumGC)
	p.Layer["sim.events"] = p.Events
	if p.FailedOps == 0 && len(p.Failures) > 0 {
		p.FailedOps = 1
	}
	return p, nil
}

// fleetWipe is the C7 world decomposed into its public calls: build,
// run to two hours past the trigger, capture.
func fleetWipe(p *passResult, seed uint64, rec *recorder, root int, ref *reference) error {
	p.Ops = 1
	_, end := rec.begin("core.BuildAramcoFleet", root)
	opts := fleetOptions()
	f, err := core.BuildAramcoFleet(seed, opts)
	if err != nil {
		return fmt.Errorf("build fleet: %w", err)
	}
	p.SetupS = end()
	p.Layer["core.fleet_build_s"] = p.SetupS

	_, end = rec.begin("core.AramcoFleet.RunUntil", root)
	if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
		return fmt.Errorf("run fleet: %w", err)
	}
	p.RunS = end()

	_, end = rec.begin("core.Result.CaptureObsMerged", root)
	res := &core.Result{ID: "C7"}
	res.CaptureObsMerged(f.Kernels()...)
	p.Layer["core.capture_s"] = end()

	_, end = rec.begin("verify", root)
	stats := f.FleetStats()
	wipedBefore := 0
	for _, sc := range f.Sites {
		for _, h := range sc.Hosts {
			for _, e := range h.EventLog() {
				if strings.Contains(e.Message, "host wiped") && e.At.Before(shamoon.AramcoTrigger) {
					wipedBefore++
				}
			}
		}
	}
	got := map[string]float64{
		"infected":          float64(f.InfectedCount()),
		"wiped_unbootable":  float64(f.WipedCount()),
		"files_overwritten": float64(stats.FilesWiped),
		"reports_received":  float64(len(f.Reports())),
	}
	for _, name := range sortedKeys(got) {
		if name != "files_overwritten" && got[name] != fleetHosts {
			p.failf("fleet-wipe: %s = %v, want %d", name, got[name], fleetHosts)
		}
		if want := ref.Metrics[name]; got[name] != want {
			p.failf("fleet-wipe: %s = %v, but core.RunAramcoPartitionedN reports %v", name, got[name], want)
		}
	}
	if wipedBefore != 0 {
		p.failf("fleet-wipe: %d hosts wiped before the trigger", wipedBefore)
	}
	snapshot := res.Obs.Text()
	if sha(snapshot) != ref.Obs {
		p.failf("fleet-wipe: counters differ from core.RunAramcoPartitionedN's")
	}
	var digest strings.Builder
	digest.WriteString(snapshot)
	for _, name := range sortedKeys(got) {
		fmt.Fprintf(&digest, "metric %s %v\n", name, got[name])
	}
	fmt.Fprintf(&digest, "metric wiped_before_trigger %d\n", wipedBefore)
	p.Digest = sha(digest.String())
	end()

	c := res.Obs.Counters
	p.Events = c["sim.event.execute"]
	p.Layer["host.driver_loads"] = c["host.driver.load"]
	p.Layer["shamoon.files_wiped"] = c["shamoon.file.wipe"]
	poolLayer(p, f.Kernels()...)
	var busy, satMax time.Duration
	var messages uint64
	for i, st := range f.Set.Stats() {
		busy += st.Wall
		messages += st.Sent
		if i == 0 {
			p.Layer["sim.partition.hub_busy_s"] = st.Wall.Seconds()
		} else if st.Wall > satMax {
			satMax = st.Wall
		}
	}
	p.Layer["sim.partition.satellite_busy_max_s"] = satMax.Seconds()
	p.Layer["sim.partition.messages"] = float64(messages)
	p.Layer["sim.partition.idle_ratio"] = 1 - busy.Seconds()/(float64(opts.Workers)*p.RunS)
	return nil
}

// noisyEnclave runs the CNI campaign inside enterprise user noise with
// the rule pack live, then exports, re-reads, replays and builds the
// provenance forest of the retained trace.
func noisyEnclave(p *passResult, seed uint64, rec *recorder, root int) error {
	p.Ops = 1
	setup, end := rec.begin("setup", root)
	_, endCall := rec.begin("core.NewWorld", setup)
	w, err := core.NewWorld(core.WorldConfig{Seed: seed})
	if err != nil {
		return fmt.Errorf("build world: %w", err)
	}
	endCall()
	_, endCall = rec.begin("core.BuildCNI", setup)
	sc, err := core.BuildCNI(w, core.CNIOptions{
		Workstations: enclaveHosts,
		Rules:        detect.CNIRulePack(),
		Activity:     users.MixEnterprise,
	})
	if err != nil {
		return fmt.Errorf("build CNI scenario: %w", err)
	}
	endCall()
	_, endCall = rec.begin("core.CNIScenario.Intrude", setup)
	if err := sc.Intrude(); err != nil {
		return fmt.Errorf("intrude: %w", err)
	}
	endCall()
	p.SetupS = end()
	p.Layer["core.world_build_s"] = p.SetupS

	_, end = rec.begin("sim.Kernel.RunFor", root)
	if err := w.K.RunFor(enclaveWindow); err != nil {
		return fmt.Errorf("run enclave: %w", err)
	}
	p.RunS = end()

	_, end = rec.begin("sim.Trace.WriteJSONL", root)
	var export bytes.Buffer
	if err := w.K.Trace().WriteJSONL(&export); err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	p.Layer["obs.jsonl_write_s"] = end()
	p.Layer["obs.jsonl_bytes"] = float64(export.Len())

	_, end = rec.begin("obs.ParseJSONL", root)
	events, err := obs.ParseJSONL(bytes.NewReader(export.Bytes()))
	if err != nil {
		return fmt.Errorf("parse trace: %w", err)
	}
	p.Layer["obs.jsonl_parse_s"] = end()

	_, end = rec.begin("detect.Replay", root)
	if _, err := detect.Replay(events, detect.CNIRulePack()); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	p.Layer["detect.replay_s"] = end()

	_, end = rec.begin("provenance.Build", root)
	forest := provenance.Build(events)
	p.Layer["provenance.build_s"] = end()
	p.Layer["provenance.nodes"] = float64(len(forest.Nodes))

	_, end = rec.begin("verify", root)
	for _, issue := range forest.Validate() {
		p.failf("noisy-enclave: provenance: %s", issue)
	}
	var again bytes.Buffer
	if err := obs.WriteJSONL(&again, events); err != nil {
		return fmt.Errorf("re-export trace: %w", err)
	}
	if !bytes.Equal(again.Bytes(), export.Bytes()) {
		p.failf("noisy-enclave: ParseJSONL(WriteJSONL(events)) does not round-trip")
	}
	en := sc.Engine
	for _, r := range en.Rules() {
		if en.FireCount(r.Name) == 0 {
			p.failf("noisy-enclave: rule %s never fired", r.Name)
		}
	}
	snapshot := w.K.Metrics().Snapshot()
	var digest bytes.Buffer
	if err := detect.WriteAlertsJSONL(&digest, en.Alerts()); err != nil {
		return fmt.Errorf("export alerts: %w", err)
	}
	digest.WriteString(snapshot.Text())
	p.Digest = sha(digest.String())
	end()

	c := snapshot.Counters
	p.Events = c["sim.event.execute"]
	poolLayer(p, w.K)
	records := 0
	for _, cat := range traceCategories {
		records += w.K.Trace().Count(cat)
	}
	p.Layer["obs.trace.records"] = float64(records)
	p.Layer["detect.events_seen"] = float64(en.Seen())
	p.Layer["detect.alerts"] = float64(len(en.Alerts()))
	p.Layer["detect.suppressed"] = float64(en.Suppressed())
	st := sc.Users.Stats
	p.Layer["users.actions"] = float64(st.Actions())
	p.Layer["users.refused_ratio"] = float64(st.ActionErrors) / float64(max(1, st.Actions()+st.ActionErrors))
	p.Layer["netsim.requests"] = c["internet.request.dispatch"]
	p.Layer["netsim.dispatch_errors"] = c["net.dispatch.err"]
	return nil
}

var traceCategories = []sim.Category{
	sim.CatExec, sim.CatInfect, sim.CatSpread, sim.CatExploit, sim.CatNetwork,
	sim.CatC2, sim.CatExfil, sim.CatPLC, sim.CatWipe, sim.CatDefense, sim.CatCert,
	sim.CatSuicide, sim.CatBluetooth, sim.CatUSB, sim.CatFault, sim.CatKernel,
	sim.CatAlert, sim.CatUser,
}

// registryIDs is every registry experiment except C7, which fleet-wipe
// measures on its own.
func registryIDs() []string {
	var ids []string
	for _, id := range core.ExperimentIDs() {
		if id != "C7" {
			ids = append(ids, id)
		}
	}
	return ids
}

// registry runs the small-world experiments one after another, then
// renders the report. core.RunExperiments with one worker is a plain
// loop on the calling goroutine, so calling it once per ID does the same
// work and lets each experiment get its own span.
func registry(p *passResult, seed uint64, rec *recorder, root int) error {
	ids := registryIDs()
	p.Ops = len(ids)
	col := runstats.Active()
	if col == nil {
		return fmt.Errorf("registry pass needs the runstats collector for its set-up timers")
	}
	group, end := rec.begin("core.RunExperiments", root)
	reports := make([]core.RunReport, 0, len(ids))
	for _, id := range ids {
		_, endExp := rec.begin("experiment."+id, group)
		reports = append(reports, core.RunExperiments([]string{id}, seed, 1)...)
		p.Layer["registry."+id+"_s"] = endExp()
	}
	p.RunS = end()

	_, end = rec.begin("core.RenderExperimentsMarkdown", root)
	md := core.RenderExperimentsMarkdown(reports, seed)
	p.Layer["core.report_render_s"] = end()

	_, end = rec.begin("verify", root)
	for _, rep := range reports {
		switch {
		case rep.Err != nil:
			p.FailedOps++
			p.failf("registry: %v", rep.Err)
		case !rep.Result.Pass:
			p.FailedOps++
			p.failf("registry: %s did not pass", rep.ID)
		default:
			p.Events += rep.Result.Obs.Counters["sim.event.execute"]
		}
	}
	p.Digest = sha(md)
	end()

	m := col.Manifest()
	for _, ph := range m.Phases {
		if ph.Name == "world-build" || ph.Name == "fleet-build" {
			p.SetupS += ph.WallSecs
		}
	}
	p.Layer["registry.events"] = p.Events
	p.Layer["sim.pool.hit_rate"] = m.Kernel.PoolHitRate
	p.Layer["sim.pool.misses"] = float64(m.Kernel.PoolMisses)
	return nil
}

// poolLayer reports the event-pool ledger summed over kernels.
func poolLayer(p *passResult, ks ...*sim.Kernel) {
	var hits, misses uint64
	for _, k := range ks {
		st := k.PoolStats()
		hits += st.Hits
		misses += st.Misses
	}
	p.Layer["sim.pool.hit_rate"] = float64(hits) / float64(max(1, hits+misses))
	p.Layer["sim.pool.misses"] = float64(misses)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

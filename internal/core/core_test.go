package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/malware/shamoon"
	"repro/internal/pe"
	"repro/internal/pki"
)

// TestExperimentRegistryComplete checks the index matches DESIGN.md.
func TestExperimentRegistryComplete(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 35 {
		t.Fatalf("experiments = %d, want 35", len(ids))
	}
	for _, id := range ids {
		if Experiments[id] == nil {
			t.Fatalf("experiment %s not registered", id)
		}
	}
}

// Each figure/claim experiment must pass with the default seed. These are
// the primary reproduction tests.

func runExperiment(t *testing.T, id string) *Result {
	t.Helper()
	return runExperimentWith(t, id, RunOptions{})
}

// runExperimentWith runs one registry experiment at seed 1 under opt and
// requires it to reproduce.
func runExperimentWith(t *testing.T, id string, opt RunOptions) *Result {
	t.Helper()
	res, err := Experiments[id](&Run{ID: id, Seed: 1, opt: opt})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if !res.Pass {
		t.Fatalf("%s did not reproduce:\n%s", id, res.Render())
	}
	return res
}

func TestF1StuxnetOperation(t *testing.T) {
	res := runExperiment(t, "F1")
	if res.MustMetric("centrifuges_destroyed") == 0 {
		t.Fatal("no destruction")
	}
}

func TestF2WPADMitm(t *testing.T) {
	res := runExperiment(t, "F2")
	if res.MustMetric("infected_via_fake_update") != 9 {
		t.Fatalf("update infections = %v", res.MustMetric("infected_via_fake_update"))
	}
}

func TestF3CertForging(t *testing.T) { runExperiment(t, "F3") }

func TestF4CnCPlatform(t *testing.T) {
	res := runExperiment(t, "F4")
	if res.MustMetric("registered_domains") != 80 || res.MustMetric("distinct_server_ips") != 22 {
		t.Fatalf("platform shape wrong: %s", res.Render())
	}
}

func TestF5CnCServer(t *testing.T) { runExperiment(t, "F5") }

func TestF6ShamoonComponents(t *testing.T) {
	res := runExperiment(t, "F6")
	if res.MustMetric("encrypted_resources") != 3 {
		t.Fatalf("resources = %v", res.MustMetric("encrypted_resources"))
	}
}

func TestC1ZeroDays(t *testing.T) {
	res := runExperiment(t, "C1")
	if res.MustMetric("distinct_zero_days") != 4 {
		t.Fatalf("zero days = %v", res.MustMetric("distinct_zero_days"))
	}
}

func TestC2Centrifuge(t *testing.T)  { runExperiment(t, "C2") }
func TestC3Targeting(t *testing.T)   { runExperiment(t, "C3") }
func TestC4FlameSize(t *testing.T)   { runExperiment(t, "C4") }
func TestC5ExfilVolume(t *testing.T) { runExperiment(t, "C5") }
func TestC6Suicide(t *testing.T)     { runExperiment(t, "C6") }

// The full 30,000-host C7 runs in the benchmark harness; the test tier
// uses the one-site 2,000-host slice for speed with identical mechanics.
func TestC7AramcoScaleReduced(t *testing.T) {
	res, err := RunAramcoPartitionedN(1, 2000, 1, 0, 0, false)
	if err != nil {
		t.Fatalf("C7: %v", err)
	}
	if !res.Pass {
		t.Fatalf("C7 did not reproduce:\n%s", res.Render())
	}
	if res.MustMetric("wiped_unbootable") != 2000 {
		t.Fatalf("wiped = %v", res.MustMetric("wiped_unbootable"))
	}
}

func TestC8JPEGBug(t *testing.T) {
	res := runExperiment(t, "C8")
	if res.MustMetric("buggy_overwrite_bytes") != shamoon.JPEGFragmentLen {
		t.Fatalf("fragment = %v", res.MustMetric("buggy_overwrite_bytes"))
	}
}

func TestC9Reporter(t *testing.T)   { runExperiment(t, "C9") }
func TestC10AirGap(t *testing.T)    { runExperiment(t, "C10") }
func TestC11Bluetooth(t *testing.T) { runExperiment(t, "C11") }

func TestT1Trends(t *testing.T) {
	res := runExperiment(t, "T1")
	if res.MustMetric("shamoon_suiciding") != 0 {
		t.Fatal("shamoon should not score on suiciding")
	}
}

func TestA1AblationPatching(t *testing.T) { runExperiment(t, "A1") }
func TestA2AblationAdvisory(t *testing.T) { runExperiment(t, "A2") }

func TestA3EpidemicCurve(t *testing.T) {
	res := runExperiment(t, "A3")
	if res.MustMetric("hours_to_50pct") >= res.MustMetric("hours_to_100pct") {
		t.Fatalf("curve shape wrong:\n%s", res.Render())
	}
}

func TestE1DuquTargeting(t *testing.T) {
	res := runExperiment(t, "E1")
	if res.MustMetric("distinct_victim_modules") != 3 {
		t.Fatalf("modules = %v", res.MustMetric("distinct_victim_modules"))
	}
}

func TestE3Lineage(t *testing.T) {
	res := runExperiment(t, "E3")
	if res.MustMetric("sim_stuxnet_duqu") <= res.MustMetric("sim_stuxnet_shamoon") {
		t.Fatalf("lineage shape wrong:\n%s", res.Render())
	}
}

func TestE4Sinkhole(t *testing.T) {
	res := runExperiment(t, "E4")
	if res.MustMetric("sinkhole_checkins_fl") != 0 {
		t.Fatalf("FL clients survived the suicide:\n%s", res.Render())
	}
}

func TestE2GaussGodel(t *testing.T) {
	res := runExperiment(t, "E2")
	if res.MustMetric("godel_detonations") != 1 {
		t.Fatalf("detonations = %v", res.MustMetric("godel_detonations"))
	}
}

// Determinism: the same experiment with the same seed yields identical
// metrics.
func TestExperimentDeterminism(t *testing.T) {
	run := func() []Metric {
		res, err := RunF1StuxnetOperation(&Run{Seed: 7})
		if err != nil {
			t.Fatalf("F1: %v", err)
		}
		return res.Metrics
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("metric counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("metric %s differs across runs: %v vs %v", a[i].Name, a[i].Value, b[i].Value)
		}
	}
}

func TestResultRender(t *testing.T) {
	res := &Result{ID: "X", Title: "test", Paper: "paper says", Pass: true}
	res.metric("answer", 42, "units")
	res.notef("a note %d", 1)
	out := res.Render()
	for _, want := range []string{"[X]", "PASS", "paper says", "answer", "42", "a note 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, ok := res.Metric("missing"); ok {
		t.Fatal("phantom metric")
	}
}

func TestWorldAdvisoryAffectsAllHosts(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 3})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	lan := w.NewLAN("l", "10.0.0", false)
	h1 := w.AddHost(lan, "H1")
	h2 := w.AddHost(lan, "H2")
	// A forged update every host accepts warms the signature memo the
	// host stores share; the advisory must still reject it on every host.
	if err := w.ForgeUpdateCert(); err != nil {
		t.Fatalf("ForgeUpdateCert: %v", err)
	}
	fake := &pe.File{Name: "WuSetupV.exe", Machine: pe.MachineX86, Timestamp: w.K.Now(),
		Sections: []pe.Section{{Name: ".text", Data: []byte("installer")}}}
	if err := pki.SignImage(fake, w.PKI.AttackerKey, w.PKI.ForgedChain()...); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	hosts := []*host.Host{h1, h2}
	for _, h := range hosts {
		if _, err := pki.VerifyImage(fake, h.CertStore, w.K.Now(), pki.UsageCodeSign); err != nil {
			t.Fatalf("%s rejected the forged update before the advisory: %v", h.Name, err)
		}
	}
	w.IssueAdvisory()
	for _, h := range hosts {
		if !h.CertStore.IsDistrusted(w.PKI.Licensing.Cert.Serial) {
			t.Fatalf("%s store not updated", h.Name)
		}
		if _, err := pki.VerifyImage(fake, h.CertStore, w.K.Now(), pki.UsageCodeSign); !errors.Is(err, pki.ErrDistrusted) {
			t.Fatalf("%s after the advisory: err = %v, want ErrDistrusted", h.Name, err)
		}
	}
	if w.PKI.BaseStore.IsDistrusted(w.PKI.Licensing.Cert.Serial) {
		t.Fatal("the advisory reached the world's base store")
	}
	if w.Host("H1") != h1 || w.Host("GHOST") != nil {
		t.Fatal("World.Host lookup broken")
	}
	_ = time.Second
}

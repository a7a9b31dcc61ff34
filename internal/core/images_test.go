package core

import (
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/host"
	"repro/internal/malware/shamoon"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/users"
)

// memoFleet builds a partitioned Aramco world advanced by two shard
// workers, populated so the users layer's shared images run too.
func memoFleet(t *testing.T, seed uint64, hosts, sites int, mix users.Mix, mute bool) *AramcoFleet {
	t.Helper()
	f, err := BuildAramcoFleet(seed, AramcoFleetOptions{
		Workstations: hosts, Sites: sites, DocsPerHost: 2, LeanImages: true,
		Activity: mix, MuteTrace: mute, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// verifyMemo requires every image m handed out to still marshal to the
// bytes it was parsed from, and at least min of them.
func verifyMemo(t *testing.T, m *host.ImageMemo, min int, when string) {
	t.Helper()
	n, err := m.Verify()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if n < min {
		t.Fatalf("%s: memo holds %d images, want at least %d", when, n, min)
	}
}

// TestPartitionImageMemoReadOnly pins the read-only contract of memoized
// images (DESIGN.md §9): after a complete partitioned C7 campaign, run by
// two shard workers over a populated fleet, and after a populated CNI
// enclave run under the live rule pack, every image the memo handed to a
// dispatcher, an implant or the users layer still marshals to exactly the
// bytes it was parsed from. Parse is canonical, so those bytes are the
// image's marshalled form before anyone received it.
func TestPartitionImageMemoReadOnly(t *testing.T) {
	const hosts, sites = 360, 3
	f := memoFleet(t, 5, hosts, sites, users.MixEnterprise, true)
	memo := f.Sites[0].World.images
	for i, sc := range f.Sites {
		if sc.World.images != memo {
			t.Fatalf("site %d holds its own memo; a partitioned world shares one", i)
		}
	}
	if err := f.RunUntil(shamoon.AramcoTrigger); err != nil {
		t.Fatal(err)
	}
	// Every site's dropper, and the enterprise admin's maintenance patch.
	verifyMemo(t, memo, sites+1, "before the trigger")
	if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := f.WipedCount(); got != hosts {
		t.Fatalf("wiped %d of %d hosts", got, hosts)
	}
	// Plus every site's wiper, run by the detonation task.
	verifyMemo(t, memo, 2*sites+1, "after the wipe")

	w, err := NewWorld(WorldConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildCNI(w, CNIOptions{Workstations: 8, Rules: detect.CNIRulePack(), Activity: users.MixEnterprise})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Intrude(); err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunFor(14 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if sc.CNI.InfectedCount() < 2 {
		t.Fatalf("CNI campaign infected %d hosts", sc.CNI.InfectedCount())
	}
	// The backdoor, run by its scheduled task, and the admin's patch.
	verifyMemo(t, w.images, 2, "after the CNI run")
}

// TestPartitionImageMemoPerWorld: the memo is world-scoped. Two
// partitioned worlds in one process, handed the very same buffer, parse
// it once each and never see each other's image.
func TestPartitionImageMemoPerWorld(t *testing.T) {
	raw, err := (&pe.File{Name: "probe.exe", Machine: pe.MachineX86, Timestamp: sim.Epoch,
		Sections: []pe.Section{{Name: ".text", Data: []byte("probe")}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]*pe.File
	for i := range got {
		f := memoFleet(t, uint64(i+1), 40, 2, users.MixNone, true)
		for _, sc := range f.Sites {
			for _, h := range sc.Hosts[:2] {
				dispatch := h.Dispatcher
				h.Dispatcher = func(hh *host.Host, proc *host.Process, img *pe.File) {
					got[i] = append(got[i], img)
					dispatch(hh, proc, img)
				}
				if err := h.FS.WriteShared(`C:\probe.exe`, raw, 0, h.K.Now()); err != nil {
					t.Fatal(err)
				}
				if _, err := h.ExecuteFile(`C:\probe.exe`, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		verifyMemo(t, f.Sites[0].World.images, 1, "probe world")
		for _, img := range got[i] {
			if img != got[i][0] {
				t.Fatalf("world %d parsed the shared buffer more than once", i)
			}
		}
	}
	if got[0][0] == got[1][0] {
		t.Fatal("two worlds share a memoized image")
	}
}

// traceCategories is every category the range emits.
var traceCategories = []sim.Category{
	sim.CatExec, sim.CatInfect, sim.CatSpread, sim.CatExploit, sim.CatNetwork,
	sim.CatC2, sim.CatExfil, sim.CatPLC, sim.CatWipe, sim.CatDefense, sim.CatCert,
	sim.CatSuicide, sim.CatBluetooth, sim.CatUSB, sim.CatFault, sim.CatKernel,
	sim.CatAlert, sim.CatUser,
}

// TestPartitionMutedTraceTallies: substrate emitters that skip formatting
// on a muted trace (Trace.Tally) must leave every category count and the
// sequence number exactly where a live trace leaves them. The only
// difference a live trace may make is the users layer's action
// breadcrumbs, which are observational and skipped outright when muted;
// its session-start spans are counted either way.
func TestPartitionMutedTraceTallies(t *testing.T) {
	run := func(mute bool) *AramcoFleet {
		f := memoFleet(t, 7, 240, 2, users.MixEnterprise, mute)
		if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	muted, live := run(true), run(false)
	for i := range muted.Sites {
		mt, lt := muted.Sites[i].World.K.Trace(), live.Sites[i].World.K.Trace()
		if lt.Count(sim.CatNetwork) == 0 || lt.Count(sim.CatSpread) == 0 {
			t.Fatalf("site %d: no network or spread records; the check would be vacuous", i)
		}
		sessions := muted.Sites[i].Users.Stats.Agents
		breadcrumbs := lt.Count(sim.CatUser) - sessions
		if mt.Count(sim.CatUser) != sessions || breadcrumbs <= 0 {
			t.Fatalf("site %d: %d agents, muted user count %d, live %d",
				i, sessions, mt.Count(sim.CatUser), lt.Count(sim.CatUser))
		}
		for _, cat := range traceCategories {
			if cat == sim.CatUser {
				continue
			}
			if got, want := mt.Count(cat), lt.Count(cat); got != want {
				t.Fatalf("site %d: muted %s count %d, live %d", i, cat, got, want)
			}
		}
		if got, want := mt.Seq(), lt.Seq()-uint64(breadcrumbs); got != want {
			t.Fatalf("site %d: muted seq %d, live seq less breadcrumbs %d", i, got, want)
		}
	}
}

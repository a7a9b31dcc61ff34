package host

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pe"
	"repro/internal/sim"
)

// memoImageBytes marshals a small executable image.
func memoImageBytes(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := (&pe.File{Name: name, Machine: pe.MachineX86, Timestamp: time.Date(2012, 8, 9, 0, 0, 0, 0, time.UTC),
		Sections: []pe.Section{{Name: ".text", Characteristics: pe.SecCode | pe.SecExec, Data: []byte(name + " body")}}}).Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return raw
}

// memoHost builds a host on its own kernel sharing m, whose dispatcher
// records every image it is handed.
func memoHost(m *ImageMemo, name string, seen *[]*pe.File) *Host {
	h := New(sim.NewKernel(sim.WithSeed(3)), name, WithImageMemo(m))
	h.Dispatcher = func(_ *Host, _ *Process, img *pe.File) { *seen = append(*seen, img) }
	return h
}

// TestImageMemoSharedParseOnce: hosts sharing a memo parse one shared
// buffer once and all receive that image, with the digest Execute of the
// same image would compute.
func TestImageMemoSharedParseOnce(t *testing.T) {
	raw := memoImageBytes(t, "trksvr.exe")
	m := NewImageMemo()
	var seen []*pe.File
	for _, name := range []string{"WS-1", "WS-2", "WS-3"} {
		h := memoHost(m, name, &seen)
		if err := h.FS.WriteShared(`C:\Windows\System32\trksvr.exe`, raw, 0, h.K.Now()); err != nil {
			t.Fatal(err)
		}
		proc, err := h.ExecuteFile(`C:\Windows\System32\trksvr.exe`, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := seen[0].MustDigest(); proc.Digest != want {
			t.Fatalf("%s: process digest %x, want %x", name, proc.Digest, want)
		}
	}
	if len(m.images) != 1 {
		t.Fatalf("memo holds %d images, want 1", len(m.images))
	}
	for i, img := range seen {
		if img != seen[0] {
			t.Fatalf("host %d was handed a second parse of the shared buffer", i)
		}
	}
	if n, err := m.Verify(); n != 1 || err != nil {
		t.Fatalf("Verify = %d, %v", n, err)
	}
}

// TestImageMemoMissesOwnedNode: a node copy-on-write promoted to owned
// (MutableBytes) is parsed afresh, even though its bytes are unchanged,
// and its parse is not stored.
func TestImageMemoMissesOwnedNode(t *testing.T) {
	raw := memoImageBytes(t, "netinit.exe")
	m := NewImageMemo()
	var seen []*pe.File
	a, b := memoHost(m, "WS-1", &seen), memoHost(m, "WS-2", &seen)
	for _, h := range []*Host{a, b} {
		if err := h.FS.WriteShared(`C:\x.exe`, raw, 0, h.K.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ExecuteFile(`C:\x.exe`, false); err != nil {
		t.Fatal(err)
	}
	node, err := b.FS.Read(`C:\x.exe`)
	if err != nil {
		t.Fatal(err)
	}
	node.MutableBytes()
	if _, err := b.ExecuteFile(`C:\x.exe`, false); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] == seen[1] {
		t.Fatal("owned node was served the memoized image")
	}
	if seen[0].MustDigest() != seen[1].MustDigest() {
		t.Fatal("owned node's image differs from the shared one")
	}
	if len(m.images) != 1 {
		t.Fatalf("memo holds %d images, want 1", len(m.images))
	}
}

// TestImageMemoSkipsParseFailures: a shared buffer that is not an image
// fails exactly as before and leaves nothing in the memo.
func TestImageMemoSkipsParseFailures(t *testing.T) {
	m := NewImageMemo()
	var seen []*pe.File
	h := memoHost(m, "WS-1", &seen)
	if err := h.FS.WriteShared(`C:\junk.exe`, []byte("MZ not an spe image"), 0, h.K.Now()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := h.ExecuteFile(`C:\junk.exe`, false); err == nil || !strings.Contains(err.Error(), `execute C:\junk.exe: pe: bad magic`) {
			t.Fatalf("err = %v, want the bad-magic parse error", err)
		}
	}
	if len(m.images) != 0 || len(seen) != 0 {
		t.Fatalf("parse failure stored (%d) or dispatched (%d)", len(m.images), len(seen))
	}
}

// TestImageMemoConcurrentHosts executes one shared buffer from hosts on
// several goroutines at once, the way the shards of a partitioned world
// do; under -race this proves the memo's locking.
func TestImageMemoConcurrentHosts(t *testing.T) {
	raw := memoImageBytes(t, "wiper.exe")
	m := NewImageMemo()
	const workers = 8
	images := make([]*pe.File, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var seen []*pe.File
			h := memoHost(m, "WS", &seen)
			for j := 0; j < 20; j++ {
				if err := h.FS.WriteShared(`C:\w.exe`, raw, 0, h.K.Now()); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.ExecuteFile(`C:\w.exe`, true); err != nil {
					t.Error(err)
					return
				}
			}
			images[i] = seen[0]
		}(i)
	}
	wg.Wait()
	for i, img := range images {
		if img != images[0] {
			t.Fatalf("worker %d got its own parse", i)
		}
	}
	if n, err := m.Verify(); n != 1 || err != nil {
		t.Fatalf("Verify = %d, %v", n, err)
	}
}

// TestImageMemoVerifyCatchesMutation: Verify names an image someone
// mutated after the memo handed it out.
func TestImageMemoVerifyCatchesMutation(t *testing.T) {
	m := NewImageMemo()
	var seen []*pe.File
	h := memoHost(m, "WS-1", &seen)
	if err := h.FS.WriteShared(`C:\x.exe`, memoImageBytes(t, "x.exe"), 0, h.K.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ExecuteFile(`C:\x.exe`, false); err != nil {
		t.Fatal(err)
	}
	seen[0].EntryPoint++
	if _, err := m.Verify(); err == nil || !strings.Contains(err.Error(), "mutated") {
		t.Fatalf("Verify = %v, want a mutation report", err)
	}
}

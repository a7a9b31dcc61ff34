package host

import (
	"testing"

	"repro/internal/pe"
	"repro/internal/pki"
	"repro/internal/sim"
)

// benchSeed seeds a fresh host per iteration, so the numbers cover the
// full corpus-construction path: folder/name draws, FileNode churn, and —
// in eager mode only — materialising every document's bytes.
func benchSeed(b *testing.B, docs, size int, eager bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(sim.NewKernel(sim.WithSeed(uint64(1+i))), "WS", WithEagerDocs(eager))
		if _, failed := h.SeedDocumentsSized("u", docs, size); failed != 0 {
			b.Fatalf("%d documents failed to seed", failed)
		}
	}
}

// BenchmarkSeedDocumentsLazy is the default corpus path: documents carry a
// content descriptor (seed, length) and no bytes until first read.
func BenchmarkSeedDocumentsLazy(b *testing.B) { benchSeed(b, 50, 64*1024, false) }

// BenchmarkSeedDocumentsEager materialises every document at seeding time;
// the delta against the lazy bench is the allocation win of §9.
func BenchmarkSeedDocumentsEager(b *testing.B) { benchSeed(b, 50, 64*1024, true) }

// BenchmarkCheckWipeLazy scans a seeded-but-unread corpus for the JPEG
// overwrite marker. Prefix-only reads must not materialise the documents.
func BenchmarkCheckWipeLazy(b *testing.B) {
	h := New(sim.NewKernel(sim.WithSeed(7)), "WS")
	if _, failed := h.SeedDocumentsSized("u", 200, 64*1024); failed != 0 {
		b.Fatalf("%d documents failed to seed", failed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chk := h.CheckWipe(); chk.FilesWiped != 0 {
			b.Fatalf("unexpected wipe scan: %+v", chk)
		}
	}
	h.FS.Walk(`C:\Users`, func(f *FileNode) bool {
		if f.Materialized() {
			b.Fatalf("CheckWipe materialised %s", f.Path)
		}
		return true
	})
}

// BenchmarkLoadDriver loads one signed raw-disk driver through a fresh
// clone of one base store per iteration, as every host of a fleet does:
// the clones share the base store's signature memo.
func BenchmarkLoadDriver(b *testing.B) {
	base, key, cert := driverPKI(b)
	drv := testImage("drdisk.sys")
	drv.Sections = append(drv.Sections, pe.Section{Name: CapSectionName, Data: []byte("rawdisk")})
	if err := pki.SignImage(drv, key, cert); err != nil {
		b.Fatal(err)
	}
	k := testKernel()
	k.Trace().SetMuted(true)
	h := New(k, "WS-001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CertStore = base.Clone()
		h.eventLog = h.eventLog[:0]
		if _, err := h.LoadDriver(drv); err != nil {
			b.Fatal(err)
		}
	}
}

package pki

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pe"
)

func memoSize(s *Store) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.ok)
}

// driverSigner is an Eldos-style "Eldos Corporation" driver-signing leaf
// issued by root.
type driverSigner struct {
	root *Authority
	key  *Keypair
	leaf *Certificate
}

func newDriverSigner(t *testing.T) *driverSigner {
	t.Helper()
	root := testRoot(t, "SimTrust Root CA", HashStrong)
	key := NewKeypair(seed(60))
	leaf, err := root.Issue(testNow, IssueRequest{Subject: "Eldos Corporation", Usages: UsageDriverSign, PubKey: key.Public})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return &driverSigner{root: root, key: key, leaf: leaf}
}

// sign returns a raw-disk driver image signed by key under leaf. Every
// call with the same arguments yields the same bytes, so a memo warmed by
// one call's image is warm for the next.
func (d *driverSigner) sign(t *testing.T, key *Keypair, leaf *Certificate) *pe.File {
	t.Helper()
	img := &pe.File{Name: "drdisk.sys", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("raw disk driver")}, {Name: ".caps", Data: []byte("rawdisk")}}}
	if err := SignImage(img, key, leaf); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	return img
}

// TestMemoKeepsEveryCheck warms the shared memo with a good driver, then
// tampers with one input at a time. Each must fail exactly as it does on a
// store that has never verified anything, fail again on retry, and leave
// the memo size unchanged.
func TestMemoKeepsEveryCheck(t *testing.T) {
	const memoEntries = 2 // the leaf certificate and the image digest
	type input struct {
		img   *pe.File
		at    time.Time
		usage KeyUsage
		store func(*Store)
	}
	cases := []struct {
		name   string
		tamper func(*driverSigner, *input)
		want   error
	}{
		{"image section byte", func(_ *driverSigner, in *input) {
			in.img.Sections[0].Data[0] ^= 1
		}, ErrBadSignature},
		{"certificate signature byte", func(d *driverSigner, in *input) {
			bad := *d.leaf
			bad.Signature = append([]byte(nil), d.leaf.Signature...)
			bad.Signature[0] ^= 1
			in.img = d.sign(t, d.key, &bad)
		}, ErrBadSignature},
		{"leaf public key swapped", func(d *driverSigner, in *input) {
			other := NewKeypair(seed(61))
			swapped := *d.leaf
			swapped.PubKey = other.Public
			in.img = d.sign(t, other, &swapped)
		}, ErrBadSignature},
		{"leaf distrusted", func(d *driverSigner, in *input) {
			in.store = func(s *Store) { s.Distrust(d.leaf.Serial, "test") }
		}, ErrDistrusted},
		{"root distrusted", func(d *driverSigner, in *input) {
			in.store = func(s *Store) { s.Distrust(d.root.Cert.Serial, "test") }
		}, ErrDistrusted},
		{"past NotAfter", func(d *driverSigner, in *input) {
			in.at = d.leaf.NotAfter.Add(time.Second)
		}, ErrExpired},
		{"usage the leaf lacks", func(_ *driverSigner, in *input) {
			in.usage = UsageCodeSign
		}, ErrUsage},
	}
	d := newDriverSigner(t)
	warm := NewStore(d.root.Cert)
	good := d.sign(t, d.key, d.leaf)
	for i := 0; i < 2; i++ {
		if _, err := VerifyImage(good, warm, testNow, UsageDriverSign); err != nil {
			t.Fatalf("warm-up %d: %v", i, err)
		}
		if n := memoSize(warm); n != memoEntries {
			t.Fatalf("memo holds %d entries after warm-up %d, want %d", n, i, memoEntries)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := input{img: d.sign(t, d.key, d.leaf), at: testNow, usage: UsageDriverSign, store: func(*Store) {}}
			tc.tamper(d, &in)
			clone, fresh := warm.Clone(), NewStore(d.root.Cert)
			in.store(clone)
			in.store(fresh)
			_, freshErr := VerifyImage(in.img, fresh, in.at, in.usage)
			for try := 0; try < 2; try++ {
				_, err := VerifyImage(in.img, clone, in.at, in.usage)
				if !errors.Is(err, tc.want) {
					t.Fatalf("try %d: err = %v, want %v", try, err, tc.want)
				}
				if err.Error() != freshErr.Error() {
					t.Fatalf("try %d: warm store says %q, fresh store says %q", try, err, freshErr)
				}
				if n := memoSize(warm); n != memoEntries {
					t.Fatalf("try %d: failing input changed the memo to %d entries", try, n)
				}
			}
			if _, err := VerifyImage(good, warm, testNow, UsageDriverSign); err != nil {
				t.Fatalf("base store lost the good driver: %v", err)
			}
		})
	}
}

func TestVerifyImageConcurrentClones(t *testing.T) {
	d := newDriverSigner(t)
	base := NewStore(d.root.Cert)
	img := d.sign(t, d.key, d.leaf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			store := base.Clone()
			for i := 0; i < 50; i++ {
				// Odd goroutines take their clone off the leaf halfway.
				var want error
				if g%2 == 1 && i >= 25 {
					store.Distrust(d.leaf.Serial, "test")
					want = ErrDistrusted
				}
				if _, err := VerifyImage(img, store, testNow, UsageDriverSign); !errors.Is(err, want) {
					t.Errorf("goroutine %d, load %d: err = %v, want %v", g, i, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if base.IsDistrusted(d.leaf.Serial) {
		t.Fatal("a clone's Distrust reached the base store")
	}
}

// TestFindRootForIsDeterministic trusts two roots with one subject. The
// lowest serial must anchor the chain on every build of the store, so the
// verdict cannot follow map order.
func TestFindRootForIsDeterministic(t *testing.T) {
	const subject = "Twin Root CA"
	low := testRoot(t, subject, HashStrong)
	high := NewRoot(subject, HashStrong, seed(62), testNow.Add(-time.Hour), 100*365*24*time.Hour)
	high.Cert.Serial = low.Cert.Serial + 1
	high.Cert.Signature = high.Key.Sign(high.Cert.Digest())
	issue := func(a *Authority, s byte) *Certificate {
		key := NewKeypair(seed(s))
		c, err := a.Issue(testNow, IssueRequest{Subject: "Leaf", Usages: UsageCodeSign, PubKey: key.Public})
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		return c
	}
	underLow, underHigh := issue(low, 63), issue(high, 64)
	for i := 0; i < 100; i++ {
		store := NewStore(high.Cert, low.Cert)
		if err := store.VerifyChain(testNow, UsageCodeSign, underLow); err != nil {
			t.Fatalf("build %d: leaf under the lowest-serial root: %v", i, err)
		}
		if err := store.VerifyChain(testNow, UsageCodeSign, underHigh); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("build %d: leaf under the higher-serial root: err = %v, want ErrBadSignature", i, err)
		}
	}
}

// FuzzVerifyImage feeds mutated signed driver images to VerifyImage. A
// store whose memo is shared and warm must reach the same verdict, with
// the same error, as a store that has never verified anything.
func FuzzVerifyImage(f *testing.F) {
	root := NewRoot("SimTrust Root CA", HashStrong, seed(1), testNow.Add(-365*24*time.Hour), 100*365*24*time.Hour)
	warm := NewStore(root.Cert)
	for i, drv := range []struct{ signer, name, caps string }{
		{"Eldos Corporation", "drdisk.sys", "rawdisk"},
		{"Realtek Semiconductor Corp", "mrxnet.sys", "hide-files"},
	} {
		key := NewKeypair(seed(byte(90 + i)))
		cert, err := root.Issue(testNow, IssueRequest{Subject: drv.signer, Usages: UsageDriverSign | UsageCodeSign, PubKey: key.Public})
		if err != nil {
			f.Fatalf("Issue: %v", err)
		}
		img := &pe.File{Name: drv.name, Machine: pe.MachineX86, Timestamp: testNow,
			Sections: []pe.Section{{Name: ".text", Data: []byte(drv.name + " body")}, {Name: ".caps", Data: []byte(drv.caps)}}}
		if err := SignImage(img, key, cert); err != nil {
			f.Fatalf("SignImage: %v", err)
		}
		if _, err := VerifyImage(img, warm, testNow, UsageDriverSign); err != nil {
			f.Fatalf("seed %s: %v", drv.name, err)
		}
		raw, err := img.Marshal()
		if err != nil {
			f.Fatalf("Marshal: %v", err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := pe.Parse(raw)
		if err != nil {
			return
		}
		warmSig, warmErr := VerifyImage(img, warm.Clone(), testNow, UsageDriverSign)
		freshSig, freshErr := VerifyImage(img, NewStore(root.Cert), testNow, UsageDriverSign)
		if fmt.Sprint(warmErr) != fmt.Sprint(freshErr) {
			t.Fatalf("warm store: %v; fresh store: %v", warmErr, freshErr)
		}
		if warmErr == nil && warmSig.Chain[0].Subject != freshSig.Chain[0].Subject {
			t.Fatalf("signer: warm %q, fresh %q", warmSig.Chain[0].Subject, freshSig.Chain[0].Subject)
		}
	})
}

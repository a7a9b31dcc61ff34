package pki

import (
	"testing"
	"time"
)

func benchSetup(b *testing.B) (*Store, *Certificate, *Certificate, *Keypair) {
	b.Helper()
	now := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	root := NewRoot("Root", HashStrong, seed(1), now.Add(-time.Hour), 100*365*24*time.Hour)
	inter, err := root.Subordinate(now, "Licensing", HashWeak, seed(2), 50*365*24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	key := NewKeypair(seed(3))
	leaf, err := inter.Issue(now, IssueRequest{Subject: "TSLS", Usages: UsageLicenseOnly, PubKey: key.Public})
	if err != nil {
		b.Fatal(err)
	}
	return NewStore(root.Cert), leaf, inter.Cert, key
}

// BenchmarkVerifyChain measures the full cryptographic cost of a chain:
// each iteration verifies against a store with an empty signature memo.
func BenchmarkVerifyChain(b *testing.B) {
	store, leaf, inter, _ := benchSetup(b)
	now := leaf.NotBefore.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cold := *store
		cold.memo = newSigMemo()
		if err := cold.VerifyChain(now, UsageLicenseOnly, leaf, inter); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyChainWarm verifies the same chain through a warm memo:
// every check but the Ed25519 arithmetic still runs.
func BenchmarkVerifyChainWarm(b *testing.B) {
	store, leaf, inter, _ := benchSetup(b)
	now := leaf.NotBefore.Add(time.Hour)
	if err := store.VerifyChain(now, UsageLicenseOnly, leaf, inter); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.VerifyChain(now, UsageLicenseOnly, leaf, inter); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForgeFromWeakCert measures the collision search — the paper's
// "very knowledgeable cryptographers" step, feasible here because the
// legacy digest carries only 20 bits.
func BenchmarkForgeFromWeakCert(b *testing.B) {
	_, leaf, _, key := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forged, err := ForgeFromWeakCert(leaf, Certificate{
			Serial:    uint64(i + 1000), // vary the template to force a fresh search
			Subject:   "Forged Update Signer",
			Usages:    UsageCodeSign,
			NotBefore: leaf.NotBefore, NotAfter: leaf.NotAfter,
			PubKey: key.Public,
		})
		if err != nil {
			b.Fatal(err)
		}
		if WeakHash(forged.TBS()) != WeakHash(leaf.TBS()) {
			b.Fatal("no collision")
		}
	}
}

func BenchmarkWeakHash1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		WeakHash(data)
	}
}

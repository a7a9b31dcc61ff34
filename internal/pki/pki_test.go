package pki

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pe"
)

var testNow = time.Date(2011, time.March, 1, 0, 0, 0, 0, time.UTC)

func seed(b byte) [32]byte {
	var s [32]byte
	for i := range s {
		s[i] = b
	}
	return s
}

func testRoot(t *testing.T, name string, algo HashAlgo) *Authority {
	t.Helper()
	return NewRoot(name, algo, seed(1), testNow.Add(-365*24*time.Hour), 20*365*24*time.Hour)
}

func TestSelfSignedRootVerifies(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	if err := store.VerifyChain(testNow, UsageCA, root.Cert); err != nil {
		t.Fatalf("root chain: %v", err)
	}
}

func TestIssueAndVerifyLeaf(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	key := NewKeypair(seed(2))
	leaf, err := root.Issue(testNow, IssueRequest{
		Subject: "Realtek Semiconductor Corp",
		Usages:  UsageCodeSign | UsageDriverSign,
		PubKey:  key.Public,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := store.VerifyChain(testNow, UsageDriverSign, leaf); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

func TestVerifyRejectsWrongUsage(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	key := NewKeypair(seed(3))
	leaf, err := root.Issue(testNow, IssueRequest{
		Subject: "Customer TSLS",
		Usages:  UsageLicenseOnly,
		PubKey:  key.Public,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	err = store.VerifyChain(testNow, UsageCodeSign, leaf)
	if !errors.Is(err, ErrUsage) {
		t.Fatalf("err = %v, want ErrUsage", err)
	}
}

func TestVerifyRejectsExpired(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	key := NewKeypair(seed(4))
	leaf, err := root.Issue(testNow, IssueRequest{
		Subject:  "ShortLived",
		Usages:   UsageCodeSign,
		Lifetime: time.Hour,
		PubKey:   key.Public,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	err = store.VerifyChain(testNow.Add(2*time.Hour), UsageCodeSign, leaf)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	err = store.VerifyChain(testNow.Add(-time.Hour), UsageCodeSign, leaf)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("before NotBefore: err = %v, want ErrExpired", err)
	}
}

func TestVerifyRejectsUnknownRoot(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	other := NewRoot("Other CA", HashStrong, seed(9), testNow.Add(-time.Hour), time.Hour*1000)
	store := NewStore(other.Cert)
	key := NewKeypair(seed(5))
	leaf, _ := root.Issue(testNow, IssueRequest{Subject: "X", Usages: UsageCodeSign, PubKey: key.Public})
	err := store.VerifyChain(testNow, UsageCodeSign, leaf)
	if !errors.Is(err, ErrUntrustedRoot) {
		t.Fatalf("err = %v, want ErrUntrustedRoot", err)
	}
}

func TestVerifyRejectsTamperedCert(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	key := NewKeypair(seed(6))
	leaf, _ := root.Issue(testNow, IssueRequest{Subject: "Honest Corp", Usages: UsageCodeSign, PubKey: key.Public})
	leaf.Subject = "Evil Corp" // tamper after issuance
	err := store.VerifyChain(testNow, UsageCodeSign, leaf)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestIntermediateChain(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	inter, err := root.Subordinate(testNow, "Licensing Intermediate", HashWeak, seed(7), 10*365*24*time.Hour)
	if err != nil {
		t.Fatalf("Subordinate: %v", err)
	}
	key := NewKeypair(seed(8))
	leaf, err := inter.Issue(testNow, IssueRequest{Subject: "Leaf", Usages: UsageCodeSign, PubKey: key.Public})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if leaf.SigAlgo != HashWeak {
		t.Fatalf("leaf SigAlgo = %v, want weak (inherited from intermediate default)", leaf.SigAlgo)
	}
	if err := store.VerifyChain(testNow, UsageCodeSign, leaf, inter.Cert); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

func TestNonCACannotAnchorChain(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	k1 := NewKeypair(seed(10))
	middle, _ := root.Issue(testNow, IssueRequest{Subject: "NotACA", Usages: UsageCodeSign, PubKey: k1.Public})
	k2 := NewKeypair(seed(11))
	leaf := &Certificate{
		Serial: 99, Subject: "Sneaky", Issuer: "NotACA",
		Usages: UsageCodeSign, SigAlgo: HashStrong,
		NotBefore: testNow.Add(-time.Hour), NotAfter: testNow.Add(time.Hour),
		PubKey: k2.Public,
	}
	leaf.Signature = k1.Sign(leaf.Digest())
	err := store.VerifyChain(testNow, UsageCodeSign, leaf, middle)
	if !errors.Is(err, ErrNotCA) {
		t.Fatalf("err = %v, want ErrNotCA", err)
	}
}

func TestDistrustKillsChain(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	inter, _ := root.Subordinate(testNow, "Licensing Intermediate", HashWeak, seed(12), 10*365*24*time.Hour)
	key := NewKeypair(seed(13))
	leaf, _ := inter.Issue(testNow, IssueRequest{Subject: "Leaf", Usages: UsageCodeSign, PubKey: key.Public})
	if err := store.VerifyChain(testNow, UsageCodeSign, leaf, inter.Cert); err != nil {
		t.Fatalf("pre-advisory: %v", err)
	}
	store.Distrust(inter.Cert.Serial, "MS advisory 2718704")
	err := store.VerifyChain(testNow, UsageCodeSign, leaf, inter.Cert)
	if !errors.Is(err, ErrDistrusted) {
		t.Fatalf("post-advisory err = %v, want ErrDistrusted", err)
	}
}

func TestStoreCloneIsIndependent(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	a := NewStore(root.Cert)
	b, sibling := a.Clone(), a.Clone()

	other := testRoot2(t, "Other CA")
	other.Cert.Serial = root.Cert.Serial + 1
	other.Cert.Signature = other.Key.Sign(other.Cert.Digest())
	a.AddRoot(other.Cert)
	if err := a.VerifyChain(testNow, UsageCA, other.Cert); err != nil {
		t.Fatalf("AddRoot on original: %v", err)
	}
	for _, c := range []*Store{b, sibling} {
		if err := c.VerifyChain(testNow, UsageCA, other.Cert); !errors.Is(err, ErrUntrustedRoot) {
			t.Fatalf("root added to the original after Clone: err = %v, want ErrUntrustedRoot", err)
		}
	}

	b.Distrust(root.Cert.Serial, "test")
	if a.IsDistrusted(root.Cert.Serial) {
		t.Fatal("Distrust on clone leaked into original")
	}
	if sibling.IsDistrusted(root.Cert.Serial) {
		t.Fatal("Distrust on clone leaked into a sibling clone")
	}
	if !b.IsDistrusted(root.Cert.Serial) {
		t.Fatal("Distrust did not reach the clone it was applied to")
	}
}

func TestForgeFromWeakCert(t *testing.T) {
	// The Fig. 3 scenario: Microsoft-like root, weak-digest licensing
	// intermediate, customer TSLS activation cert (license-only usage).
	root := testRoot(t, "SimSoft Root", HashStrong)
	store := NewStore(root.Cert)
	inter, err := root.Subordinate(testNow, "SimSoft Licensing PCA", HashWeak, seed(20), 10*365*24*time.Hour)
	if err != nil {
		t.Fatalf("Subordinate: %v", err)
	}
	attacker := NewKeypair(seed(21))
	tsls, err := inter.Issue(testNow, IssueRequest{
		Subject: "Contoso Terminal Services LS",
		Usages:  UsageLicenseOnly,
		PubKey:  attacker.Public,
	})
	if err != nil {
		t.Fatalf("Issue TSLS: %v", err)
	}
	// The licensing cert itself must NOT verify for code signing.
	if err := store.VerifyChain(testNow, UsageCodeSign, tsls, inter.Cert); !errors.Is(err, ErrUsage) {
		t.Fatalf("TSLS code-sign err = %v, want ErrUsage", err)
	}

	forged, err := ForgeFromWeakCert(tsls, Certificate{
		Serial:    tsls.Serial, // transplant keeps victim serial out of band; any serial works
		Subject:   "SimSoft Windows Update",
		Usages:    UsageCodeSign,
		NotBefore: tsls.NotBefore,
		NotAfter:  tsls.NotAfter,
		PubKey:    attacker.Public,
	})
	if err != nil {
		t.Fatalf("ForgeFromWeakCert: %v", err)
	}
	if WeakHash(forged.TBS()) != WeakHash(tsls.TBS()) {
		t.Fatal("forged TBS does not collide with victim TBS")
	}
	if err := store.VerifyChain(testNow, UsageCodeSign, forged, inter.Cert); err != nil {
		t.Fatalf("forged chain rejected: %v", err)
	}

	// Advisory response kills the forged chain.
	store.Distrust(inter.Cert.Serial, "advisory")
	if err := store.VerifyChain(testNow, UsageCodeSign, forged, inter.Cert); !errors.Is(err, ErrDistrusted) {
		t.Fatalf("post-advisory err = %v, want ErrDistrusted", err)
	}
}

func TestForgeRequiresWeakDigest(t *testing.T) {
	root := testRoot(t, "SimSoft Root", HashStrong)
	key := NewKeypair(seed(22))
	leaf, _ := root.Issue(testNow, IssueRequest{Subject: "Strong Leaf", Usages: UsageLicenseOnly, PubKey: key.Public})
	_, err := ForgeFromWeakCert(leaf, Certificate{Subject: "X", Usages: UsageCodeSign, PubKey: key.Public,
		NotBefore: leaf.NotBefore, NotAfter: leaf.NotAfter})
	if !errors.Is(err, ErrNotForgeable) {
		t.Fatalf("err = %v, want ErrNotForgeable", err)
	}
}

func TestSignAndVerifyImage(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	key := NewKeypair(seed(30))
	cert, _ := root.Issue(testNow, IssueRequest{Subject: "JMicron Technology Corp", Usages: UsageDriverSign, PubKey: key.Public})

	img := &pe.File{Name: "mrxcls.sys", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("rootkit driver body")}}}
	if err := SignImage(img, key, cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	sig, err := VerifyImage(img, store, testNow, UsageDriverSign)
	if err != nil {
		t.Fatalf("VerifyImage: %v", err)
	}
	if sig.Chain[0].Subject != "JMicron Technology Corp" {
		t.Fatalf("signer = %q", sig.Chain[0].Subject)
	}
}

func TestVerifyImageRejectsTamper(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	key := NewKeypair(seed(31))
	cert, _ := root.Issue(testNow, IssueRequest{Subject: "Vendor", Usages: UsageDriverSign, PubKey: key.Public})
	img := &pe.File{Name: "drv.sys", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("original")}}}
	if err := SignImage(img, key, cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	img.Sections[0].Data = []byte("patched!")
	if _, err := VerifyImage(img, store, testNow, UsageDriverSign); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

// TestSignedImageFlagsAreCovered flips the reserved flags word of a signed
// driver's bytes. Parse used to read and drop it, so the tampered bytes
// parsed to the signed image and verified; a canonical Parse refuses them.
func TestSignedImageFlagsAreCovered(t *testing.T) {
	d := newDriverSigner(t)
	store := NewStore(d.root.Cert)
	raw, err := d.sign(t, d.key, d.leaf).Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for _, off := range []int{6, 7} { // flags u16 after magic and machine
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xA5
		img, err := pe.Parse(mut)
		if err != nil {
			continue
		}
		if _, verr := VerifyImage(img, store, testNow, UsageDriverSign); verr == nil {
			t.Fatalf("flags byte %d flipped: image parsed and its signature still verified", off)
		}
	}
}

func TestVerifyImageUnsigned(t *testing.T) {
	store := NewStore()
	img := &pe.File{Name: "x.exe", Machine: pe.MachineX86, Timestamp: testNow}
	if _, err := VerifyImage(img, store, testNow, UsageCodeSign); err == nil {
		t.Fatal("unsigned image verified")
	}
}

func TestSignImageWrongKey(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	key := NewKeypair(seed(32))
	other := NewKeypair(seed(33))
	cert, _ := root.Issue(testNow, IssueRequest{Subject: "V", Usages: UsageCodeSign, PubKey: key.Public})
	img := &pe.File{Name: "x.exe", Machine: pe.MachineX86, Timestamp: testNow}
	if err := SignImage(img, other, cert); err == nil {
		t.Fatal("SignImage accepted mismatched key")
	}
}

func TestImageSignatureBlobRoundTripThroughParse(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	store := NewStore(root.Cert)
	inter, _ := root.Subordinate(testNow, "Inter", HashStrong, seed(34), 10*365*24*time.Hour)
	key := NewKeypair(seed(35))
	cert, _ := inter.Issue(testNow, IssueRequest{Subject: "Leaf", Usages: UsageCodeSign, PubKey: key.Public})
	img := &pe.File{Name: "update.exe", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("update body")}}}
	if err := SignImage(img, key, cert, inter.Cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	raw, err := img.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	reparsed, err := pe.Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := VerifyImage(reparsed, store, testNow, UsageCodeSign); err != nil {
		t.Fatalf("VerifyImage after round-trip: %v", err)
	}
}

func TestParseImageSignatureHostile(t *testing.T) {
	root := testRoot(t, "SimRoot CA", HashStrong)
	key := NewKeypair(seed(36))
	cert, _ := root.Issue(testNow, IssueRequest{Subject: "V", Usages: UsageCodeSign, PubKey: key.Public})
	img := &pe.File{Name: "x.exe", Machine: pe.MachineX86, Timestamp: testNow}
	if err := SignImage(img, key, cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	blob := img.SigBlob
	for i := 0; i < len(blob); i++ {
		if _, err := parseImageSignature(blob[:i]); err == nil {
			t.Fatalf("accepted truncated blob of %d bytes", i)
		}
	}
}

func TestWeakHashIsTruncated(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("a"), []byte("cyber weapons")} {
		if h := WeakHash(data); h > weakHashMask {
			t.Fatalf("WeakHash exceeds %d bits: %#x", WeakHashBits, h)
		}
	}
}

func TestUsageString(t *testing.T) {
	if got := (UsageCA | UsageCodeSign).String(); got != "[ca code-sign]" {
		t.Fatalf("String = %q", got)
	}
	if got := KeyUsage(0).String(); got != "none" {
		t.Fatalf("String = %q", got)
	}
}

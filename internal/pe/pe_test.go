package pe

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleFile() *File {
	return &File{
		Name:       "TrkSvr.exe",
		Machine:    MachineX86,
		Timestamp:  time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC),
		EntryPoint: 0x401000,
		Sections: []Section{
			{Name: ".text", Characteristics: SecCode | SecExec, Data: []byte("dropper body dropper body")},
			{Name: ".data", Characteristics: SecData | SecWrite, Data: []byte("C:\\Windows\\System32\\netinit.exe\x00f1.inf\x00")},
		},
		Imports: []Import{
			{Library: "kernel32.dll", Functions: []string{"CreateFileW", "WriteFile"}},
			{Library: "advapi32.dll", Functions: []string{"CreateServiceW"}},
		},
		Resources: []Resource{
			{ID: 101, Raw: []byte{1, 2, 3, 4}},
		},
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	f := sampleFile()
	raw, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Name != f.Name || got.Machine != f.Machine || got.EntryPoint != f.EntryPoint {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.Timestamp.Equal(f.Timestamp) {
		t.Fatalf("timestamp = %v, want %v", got.Timestamp, f.Timestamp)
	}
	if len(got.Sections) != 2 || got.Sections[0].Name != ".text" {
		t.Fatalf("sections mismatch: %+v", got.Sections)
	}
	if !bytes.Equal(got.Sections[1].Data, f.Sections[1].Data) {
		t.Fatal("section data mismatch")
	}
	if len(got.Imports) != 2 || got.Imports[0].Functions[1] != "WriteFile" {
		t.Fatalf("imports mismatch: %+v", got.Imports)
	}
	if got.Resource(101) == nil || !bytes.Equal(got.Resource(101).Raw, []byte{1, 2, 3, 4}) {
		t.Fatalf("resources mismatch: %+v", got.Resources)
	}
}

func TestDigestExcludesSignature(t *testing.T) {
	f := sampleFile()
	d1, err := f.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	f.SigBlob = []byte("signature bytes")
	d2, err := f.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if d1 != d2 {
		t.Fatal("signature blob changed the digest")
	}
	f.Sections[0].Data = append(f.Sections[0].Data, 'x')
	d3, _ := f.Digest()
	if d1 == d3 {
		t.Fatal("content change did not change the digest")
	}
}

func TestSignatureBlobRoundTrip(t *testing.T) {
	f := sampleFile()
	f.SigBlob = []byte("opaque pki attachment")
	raw, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !bytes.Equal(got.SigBlob, f.SigBlob) {
		t.Fatalf("SigBlob = %q, want %q", got.SigBlob, f.SigBlob)
	}
}

func TestParseBadMagic(t *testing.T) {
	if _, err := Parse([]byte("MZ\x90\x00rest")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseTruncatedEverywhere(t *testing.T) {
	f := sampleFile()
	f.SigBlob = []byte("sig")
	raw, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// Every strict prefix must fail to parse, never panic.
	for i := 0; i < len(raw); i++ {
		if _, err := Parse(raw[:i]); err == nil {
			t.Fatalf("Parse accepted %d-byte prefix of %d-byte image", i, len(raw))
		}
	}
}

func TestParseTrailingGarbage(t *testing.T) {
	raw, err := sampleFile().Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := Parse(append(raw, 0xCC)); err == nil {
		t.Fatal("Parse accepted trailing garbage")
	}
}

func TestParseRejectsReservedFlags(t *testing.T) {
	raw, err := sampleFile().Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for _, off := range []int{6, 7} { // the flags u16 follows magic and machine
		mut := append([]byte(nil), raw...)
		mut[off] = 0x01
		if _, err := Parse(mut); err == nil || !strings.Contains(err.Error(), "reserved flags") {
			t.Fatalf("flags byte %d set: err = %v, want a reserved-flags refusal", off, err)
		}
		if _, _, err := ParseDigest(mut); err == nil {
			t.Fatalf("flags byte %d set: ParseDigest accepted the image", off)
		}
	}
}

func TestParseRejectsOversizedInput(t *testing.T) {
	// Marshal never writes more than maxTotalLen bytes, so a canonical
	// Parse refuses more before reading a field. The zeroed buffer is
	// never written, so the test costs address space, not memory.
	if _, err := Parse(make([]byte, maxTotalLen+1)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want a size refusal", err)
	}
}

func TestParseDigestMatchesDigest(t *testing.T) {
	for _, sig := range [][]byte{nil, []byte("signature blob")} {
		f := sampleFile()
		f.SigBlob = sig
		raw, err := f.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		img, got, err := ParseDigest(raw)
		if err != nil {
			t.Fatalf("ParseDigest: %v", err)
		}
		if want := f.MustDigest(); got != want {
			t.Fatalf("sig %q: digest from bytes %x, marshalled %x", sig, got, want)
		}
		if !bytes.Equal(img.SigBlob, sig) {
			t.Fatalf("SigBlob = %q, want %q", img.SigBlob, sig)
		}
	}
}

func TestParseHostileLengthField(t *testing.T) {
	raw, err := sampleFile().Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// Corrupt bytes one at a time; Parse must never panic.
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xFF
		Parse(mut) // outcome may be ok or error; must not panic
	}
}

func TestMarshalLimits(t *testing.T) {
	f := sampleFile()
	f.Name = strings.Repeat("x", maxNameLen+1)
	if _, err := f.Marshal(); err == nil {
		t.Fatal("Marshal accepted oversized name")
	}
	f = sampleFile()
	f.Sections = make([]Section, maxSections+1)
	if _, err := f.Marshal(); err == nil {
		t.Fatal("Marshal accepted too many sections")
	}
	f = sampleFile()
	f.Imports = []Import{{Library: "a.dll", Functions: make([]string, maxFunctions+1)}}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("Marshal accepted too many functions")
	}
}

func TestEncryptedResourceNeverStoresPlaintext(t *testing.T) {
	f := sampleFile()
	key := []byte{0x5A}
	plaintext := []byte("this is the wiper module plaintext body")
	f.AddEncryptedResource(112, key, plaintext)
	raw, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if bytes.Contains(raw, plaintext) {
		t.Fatal("plaintext leaked into the serialized image")
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res := got.Resource(112)
	if res == nil {
		t.Fatal("resource 112 missing")
	}
	if !bytes.Equal(XOR(res.Raw, key), plaintext) {
		t.Fatal("XOR decryption did not recover plaintext")
	}
}

func TestXORInvolution(t *testing.T) {
	f := func(data []byte, key []byte) bool {
		return bytes.Equal(XOR(XOR(data, key), key), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXOREmptyKey(t *testing.T) {
	data := []byte("unchanged")
	if !bytes.Equal(XOR(data, nil), data) {
		t.Fatal("XOR with empty key modified data")
	}
}

func TestMarshalParsePropertyRoundTrip(t *testing.T) {
	f := func(name string, secData []byte, resID uint16, resData []byte) bool {
		if len(name) > maxNameLen {
			name = name[:maxNameLen]
		}
		img := &File{
			Name:      name,
			Machine:   MachineX64,
			Timestamp: time.Unix(1344988800, 0).UTC(),
			Sections:  []Section{{Name: ".text", Data: secData}},
			Resources: []Resource{{ID: resID, Raw: resData}},
		}
		raw, err := img.Marshal()
		if err != nil {
			return false
		}
		got, err := Parse(raw)
		if err != nil {
			return false
		}
		return got.Name == name &&
			bytes.Equal(got.Sections[0].Data, secData) &&
			got.Resources[0].ID == resID &&
			bytes.Equal(got.Resources[0].Raw, resData)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyBounds(t *testing.T) {
	if e := Entropy(nil); e != 0 {
		t.Fatalf("Entropy(nil) = %v", e)
	}
	if e := Entropy(bytes.Repeat([]byte{7}, 1000)); e != 0 {
		t.Fatalf("Entropy(constant) = %v, want 0", e)
	}
	uniform := make([]byte, 256*16)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	if e := Entropy(uniform); e < 7.99 || e > 8.0 {
		t.Fatalf("Entropy(uniform) = %v, want ~8", e)
	}
}

func TestEntropyOrdering(t *testing.T) {
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 50))
	key := []byte{0x41, 0x99, 0x3c}
	xored := XOR(text, key)
	if Entropy(xored) <= Entropy(text) {
		t.Fatal("XOR ciphertext should have higher entropy than plaintext")
	}
	if Entropy(xored) >= 7.5 {
		t.Fatalf("repeating-key XOR entropy %v unexpectedly looks like strong crypto", Entropy(xored))
	}
}

func TestExtractStrings(t *testing.T) {
	data := []byte("\x00\x01netinit.exe\x00\xffab\x00f1.inf")
	got := ExtractStrings(data, 4)
	if len(got) != 2 || got[0] != "netinit.exe" || got[1] != "f1.inf" {
		t.Fatalf("ExtractStrings = %v", got)
	}
}

func TestExtractStringsMinLen(t *testing.T) {
	data := []byte("ab\x00abcd\x00")
	if got := ExtractStrings(data, 3); len(got) != 1 || got[0] != "abcd" {
		t.Fatalf("got %v", got)
	}
	if got := ExtractStrings([]byte("tail"), 2); len(got) != 1 || got[0] != "tail" {
		t.Fatalf("trailing run missed: %v", got)
	}
}

func TestSectionAndResourceLookup(t *testing.T) {
	f := sampleFile()
	if f.Section(".text") == nil || f.Section(".missing") != nil {
		t.Fatal("Section lookup broken")
	}
	if f.Resource(101) == nil || f.Resource(999) != nil {
		t.Fatal("Resource lookup broken")
	}
}

func TestSizeMatchesMarshal(t *testing.T) {
	f := sampleFile()
	raw, _ := f.Marshal()
	if f.Size() != len(raw) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(raw))
	}
}

func TestMachineString(t *testing.T) {
	if MachineX86.String() != "x86" || MachineX64.String() != "x64" {
		t.Fatal("Machine.String broken")
	}
	if Machine(1).String() != "machine(0x1)" {
		t.Fatalf("unknown machine string = %q", Machine(1).String())
	}
}

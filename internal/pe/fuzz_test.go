package pe_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cnc"
	"repro/internal/core"
	"repro/internal/malware/cni"
	"repro/internal/malware/duqu"
	"repro/internal/malware/flame"
	"repro/internal/malware/gauss"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/pe"
	"repro/internal/pki"
)

// builtImages builds every malware family the experiments use, signed
// where the scenarios sign, and returns each image a family exports plus
// every resource of those images that is itself a plain SPE image.
func builtImages(tb testing.TB) []*pe.File {
	tb.Helper()
	w, err := core.NewWorld(core.WorldConfig{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.ForgeUpdateCert(); err != nil {
		tb.Fatal(err)
	}
	seal, err := cnc.NewSealKeypair(w.K.RNG())
	if err != nil {
		tb.Fatal(err)
	}
	center, err := cnc.NewAttackCenter(w.K, w.Internet, 5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var families []any
	add := func(family any, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		families = append(families, family)
	}
	add(stuxnet.Build(w.K, stuxnet.Config{
		DriverKey: w.PKI.StolenKey, DriverCerts: []*pki.Certificate{w.PKI.RealtekCert, w.PKI.JMicronCert},
	}))
	add(duqu.Build(w.K, duqu.Config{
		Targets: []string{"T"}, C2Domain: "x.example", SealPub: seal.Public,
		DriverKey: w.PKI.StolenKey, DriverCert: w.PKI.JMicronCert,
	}))
	add(flame.Build(w.K, flame.Config{Center: center, UpdateSignKey: w.PKI.AttackerKey, UpdateChain: w.PKI.ForgedChain()}))
	add(gauss.Build(w.K, gauss.Config{Center: center, GodelTargetDir: "X"}))
	add(shamoon.Build(w.K, shamoon.Config{ReporterDomain: "y.example", DriverKey: w.PKI.EldosKey, DriverCert: w.PKI.EldosCert}))
	add(cni.Build(w.K, cni.Config{Center: center}))

	fileType := reflect.TypeOf((*pe.File)(nil))
	seen := make(map[*pe.File]bool)
	var out []*pe.File
	keep := func(img *pe.File) {
		if img == nil || seen[img] {
			return
		}
		seen[img] = true
		out = append(out, img)
		for _, res := range img.Resources {
			if nested, err := pe.Parse(res.Raw); err == nil {
				out = append(out, nested)
			}
		}
	}
	for _, fam := range families {
		v := reflect.ValueOf(fam).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			switch fv := v.Field(i); {
			case fv.Type() == fileType:
				keep(fv.Interface().(*pe.File))
			case fv.Kind() == reflect.Slice && fv.Type().Elem() == fileType:
				for j := 0; j < fv.Len(); j++ {
					keep(fv.Index(j).Interface().(*pe.File))
				}
			}
		}
	}
	return out
}

// checkCanonical asserts the properties every input must keep: Parse
// never panics, an accepted input re-marshals to itself, and ParseDigest
// agrees with Parse followed by the marshal-based Digest, error included.
func checkCanonical(t *testing.T, raw []byte) {
	t.Helper()
	img, perr := pe.Parse(raw)
	dimg, digest, derr := pe.ParseDigest(raw)
	if perr != nil {
		if fmt.Sprint(derr) != fmt.Sprint(perr) {
			t.Fatalf("Parse: %v; ParseDigest: %v", perr, derr)
		}
		return
	}
	out, err := img.Marshal()
	if err != nil {
		t.Fatalf("accepted image does not marshal: %v", err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatalf("Marshal(Parse(b)) differs from b (%d vs %d bytes)", len(out), len(raw))
	}
	want, werr := img.Digest()
	if fmt.Sprint(derr) != fmt.Sprint(werr) {
		t.Fatalf("Digest: %v; ParseDigest: %v", werr, derr)
	}
	if werr != nil {
		return
	}
	if digest != want {
		t.Fatalf("digest from bytes %x, marshalled %x", digest, want)
	}
	if !reflect.DeepEqual(dimg, img) {
		t.Fatal("ParseDigest and Parse decoded different images")
	}
}

// TestBuiltImagesDigestFromBytes checks the ParseDigest equality, and the
// canonical round trip, on every image the malware builders produce.
func TestBuiltImagesDigestFromBytes(t *testing.T) {
	imgs := builtImages(t)
	if len(imgs) < 15 {
		t.Fatalf("collected only %d images", len(imgs))
	}
	signed := 0
	for _, img := range imgs {
		raw, err := img.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", img.Name, err)
		}
		if img.SigBlob != nil {
			signed++
		}
		t.Run(img.Name, func(t *testing.T) { checkCanonical(t, raw) })
	}
	if signed == 0 {
		t.Fatal("no signed image among the built ones")
	}
}

// FuzzParsePE mutates the images the malware builders marshal.
func FuzzParsePE(f *testing.F) {
	for _, img := range builtImages(f) {
		raw, err := img.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(checkCanonical)
}

package cnc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// memoLen reports how many secrets a key pair's memo holds.
func memoLen(kp *SealKeypair) int {
	kp.memo.mu.Lock()
	defer kp.memo.mu.Unlock()
	return len(kp.memo.m)
}

func TestOpenTwiceSecondTimeCold(t *testing.T) {
	k := testKernel()
	kp, _ := NewSealKeypair(k.RNG())
	sealed, err := Seal(kp.Public, k.RNG(), []byte("budget.xls"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if n := memoLen(kp); n != 1 {
		t.Fatalf("memo after Seal holds %d secrets, want 1", n)
	}
	first, err := kp.Open(sealed)
	if err != nil {
		t.Fatalf("first Open: %v", err)
	}
	if n := memoLen(kp); n != 0 {
		t.Fatalf("memo after Open holds %d secrets, want 0", n)
	}
	second, err := kp.Open(sealed)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if string(first) != "budget.xls" || !bytes.Equal(first, second) {
		t.Fatalf("opens = %q, %q", first, second)
	}
	if n := memoLen(kp); n != 0 {
		t.Fatalf("memo after the cold Open holds %d secrets, want 0", n)
	}
}

// TestSealOpenConcurrent seals and opens on one key pair from several
// goroutines at once; the race lane runs it under -race.
func TestSealOpenConcurrent(t *testing.T) {
	kp, _ := NewSealKeypair(sim.NewRNG(5))
	const workers, perWorker = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(100 + g))
			var blobs [][]byte
			for i := 0; i < perWorker; i++ {
				blob, err := Seal(kp.Public, rng, []byte(fmt.Sprintf("w%d doc %d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				blobs = append(blobs, blob)
			}
			for i := len(blobs) - 1; i >= 0; i-- {
				plain, err := kp.Open(blobs[i])
				if want := fmt.Sprintf("w%d doc %d", g, i); err != nil || string(plain) != want {
					errs <- fmt.Errorf("worker %d blob %d: %q, %v (want %q)", g, i, plain, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := memoLen(kp); n != 0 {
		t.Fatalf("memo holds %d secrets after every blob was opened", n)
	}
}

func TestDecryptAllDropsBadEntries(t *testing.T) {
	k, in, s, kp := testServer(t)
	center := &AttackCenter{K: k, Seal: kp, Servers: []*Server{s}}
	seal := func(doc string) []byte {
		blob, err := Seal(kp.Public, k.RNG(), []byte(doc))
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return blob
	}
	for i, body := range [][]byte{seal("doc 0"), []byte("short"), seal("doc 2")} {
		in.Dispatch(clientReq(CmdAddEntry, "victim-1", fmt.Sprintf("f%d.docx", i), body))
	}
	if n := center.Operator().CollectAll(); n != 3 {
		t.Fatalf("collected %d entries, want 3", n)
	}
	co := center.Coordinator()
	n, err := co.DecryptAll()
	if n != 2 || !errors.Is(err, ErrSealedTooShort) || !strings.Contains(err.Error(), "decrypt entry 2:") {
		t.Fatalf("DecryptAll = %d, %v; want 2 and an error naming entry 2", n, err)
	}
	if strings.Contains(err.Error(), "entry 1") || strings.Contains(err.Error(), "entry 3") {
		t.Fatalf("error names a good entry: %v", err)
	}
	n, err = co.DecryptAll()
	if n != 0 || err != nil {
		t.Fatalf("second DecryptAll = %d, %v; want 0, nil", n, err)
	}
	docs := co.Archive()
	if len(docs) != 2 || string(docs[0].Data) != "doc 0" || string(docs[1].Data) != "doc 2" {
		t.Fatalf("archive = %+v", docs)
	}
}

// FuzzOpen mutates sealed blobs. A key pair whose memo Seal filled and a
// cold twin built from the same RNG bytes must return the same plaintext
// or the same error, and neither may panic. Every seed blob shares one
// ephemeral key, so a mutation that keeps the first 32 bytes takes the
// memoised secret and any other mutation takes the X25519 path.
func FuzzOpen(f *testing.F) {
	const keySeed, ephSeed = 7, 8
	kp, err := NewSealKeypair(sim.NewRNG(keySeed))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, 31, 32, 33, 200} {
		blob, err := Seal(kp.Public, sim.NewRNG(ephSeed), bytes.Repeat([]byte{'d'}, n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		warm, err := NewSealKeypair(sim.NewRNG(keySeed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Seal(warm.Public, sim.NewRNG(ephSeed), nil); err != nil {
			t.Fatal(err)
		}
		cold, err := NewSealKeypair(sim.NewRNG(keySeed))
		if err != nil {
			t.Fatal(err)
		}
		warmPlain, warmErr := warm.Open(blob)
		coldPlain, coldErr := cold.Open(blob)
		if fmt.Sprint(warmErr) != fmt.Sprint(coldErr) {
			t.Fatalf("warm key pair: %v; cold twin: %v", warmErr, coldErr)
		}
		if !bytes.Equal(warmPlain, coldPlain) {
			t.Fatalf("warm key pair opened %x; cold twin %x", warmPlain, coldPlain)
		}
	})
}

// Package cnc implements the command-and-control platform of Figs. 4 and 5:
// servers with the newsforyou {ads,news,entries} stores and the
// GET_NEWS/ADD_ENTRY client protocol, a MySQL-like bookkeeping database,
// LogWiper and retention jobs, an 80-domain/22-IP domain pool, and the
// attack-center role separation in which stolen data is public-key sealed
// so that even the server operator cannot read it — only the attack
// coordinator holding the private key can.
package cnc

import (
	"crypto/ecdh"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// SealKeypair is the attack coordinator's X25519 key pair. The public half
// is provisioned onto every C&C server; the private half never leaves the
// attack center.
type SealKeypair struct {
	Public  *SealKey
	private *ecdh.PrivateKey
	// memo is the memo Public points at. Open reads it from here, so a
	// reassigned Public cannot hand Open another key pair's secrets.
	memo *secretMemo
}

// SealKey is a coordinator public key as provisioned onto servers and
// implants: the recipient handle Seal encrypts to. It carries its key
// pair's secret memo so that Seal can hand the shared secret on to Open;
// nothing but Open reads the memo, so a holder of the handle still has
// no decrypt path.
type SealKey struct {
	pub  *ecdh.PublicKey
	memo *secretMemo
}

// secretMemo maps the ephemeral public key of a blob sealed to one key
// pair (the blob's first 32 bytes) to the shared secret Seal derived for
// it. By DH commutativity that is the exact value Open's own X25519
// would compute, so Open takes it instead and skips the exchange
// (DESIGN.md §9). It lives and dies with its key pair.
type secretMemo struct {
	mu sync.Mutex
	m  map[[32]byte][32]byte
}

func (sm *secretMemo) put(eph, shared []byte) {
	sm.mu.Lock()
	sm.m[[32]byte(eph)] = [32]byte(shared)
	sm.mu.Unlock()
}

// take returns and forgets the secret stored for eph.
func (sm *secretMemo) take(eph []byte) (shared [32]byte, ok bool) {
	key := [32]byte(eph)
	sm.mu.Lock()
	shared, ok = sm.m[key]
	delete(sm.m, key)
	sm.mu.Unlock()
	return shared, ok
}

// deterministicX25519Key derives a private key from exactly 32 RNG bytes.
// ecdh.GenerateKey(reader) is deliberately avoided: Go's crypto internals
// may read one extra byte from the reader at random (randutil.
// MaybeReadByte), which silently shifts the deterministic RNG stream and
// makes every draw after a sealing operation irreproducible.
func deterministicX25519Key(rng *sim.RNG) (*ecdh.PrivateKey, error) {
	return ecdh.X25519().NewPrivateKey(rng.Bytes(32))
}

// NewSealKeypair generates a coordinator key pair from the deterministic
// RNG, consuming a fixed number of RNG bytes.
func NewSealKeypair(rng *sim.RNG) (*SealKeypair, error) {
	priv, err := deterministicX25519Key(rng)
	if err != nil {
		return nil, fmt.Errorf("cnc: generate seal keypair: %w", err)
	}
	memo := &secretMemo{m: make(map[[32]byte][32]byte)}
	return &SealKeypair{Public: &SealKey{pub: priv.PublicKey(), memo: memo}, private: priv, memo: memo}, nil
}

// Seal encrypts plaintext to the coordinator public key: an ephemeral
// X25519 exchange derives a SHA-256 keystream that whitens the payload.
// (Confidentiality-only, as the real deployment's GPG-like sealing was;
// integrity is not the property the paper discusses.)
func Seal(to *SealKey, rng *sim.RNG, plaintext []byte) ([]byte, error) {
	eph, err := deterministicX25519Key(rng)
	if err != nil {
		return nil, fmt.Errorf("cnc: seal: %w", err)
	}
	shared, err := eph.ECDH(to.pub)
	if err != nil {
		return nil, fmt.Errorf("cnc: seal: %w", err)
	}
	out := make([]byte, 32+len(plaintext))
	copy(out, eph.PublicKey().Bytes())
	to.memo.put(out[:32], shared)
	keystreamXOR(shared, plaintext, out[32:])
	return out, nil
}

// ErrSealedTooShort is returned for malformed sealed blobs.
var ErrSealedTooShort = errors.New("cnc: sealed blob too short")

// Open decrypts a sealed blob with the coordinator private key. The first
// open of a blob Seal produced for this key pair takes the memoised
// secret; any other blob pays the X25519 exchange.
func (kp *SealKeypair) Open(blob []byte) ([]byte, error) {
	if len(blob) < 32 {
		return nil, ErrSealedTooShort
	}
	shared, ok := kp.memo.take(blob[:32])
	if !ok {
		ephPub, err := ecdh.X25519().NewPublicKey(blob[:32])
		if err != nil {
			return nil, fmt.Errorf("cnc: open: %w", err)
		}
		secret, err := kp.private.ECDH(ephPub)
		if err != nil {
			return nil, fmt.Errorf("cnc: open: %w", err)
		}
		shared = [32]byte(secret)
	}
	out := make([]byte, len(blob)-32)
	keystreamXOR(shared[:], blob[32:], out)
	return out, nil
}

// keystreamXOR XORs src into dst under a SHA-256 counter-mode keystream
// keyed by the shared secret.
func keystreamXOR(shared, src, dst []byte) {
	var block [40]byte
	copy(block[:32], shared)
	var counter uint64
	for off := 0; off < len(src); {
		block[32] = byte(counter)
		block[33] = byte(counter >> 8)
		block[34] = byte(counter >> 16)
		block[35] = byte(counter >> 24)
		block[36] = byte(counter >> 32)
		block[37] = byte(counter >> 40)
		block[38] = byte(counter >> 48)
		block[39] = byte(counter >> 56)
		ks := sha256.Sum256(block[:])
		for i := 0; i < len(ks) && off < len(src); i++ {
			dst[off] = src[off] ^ ks[i]
			off++
		}
		counter++
	}
}

package pki

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"
)

// Store is a host's certificate trust configuration: trusted roots plus the
// Untrusted Certificate Store that Microsoft Security Advisory 2718704
// populated to kill the Flame certificates (paper, Section III-A).
//
// A Store is copy-on-write: Clone shares the root and untrusted maps, and
// AddRoot and Distrust replace a map instead of writing into it, so no
// change to one store reaches another. Every clone of a store shares its
// signature memo (see sigMemo).
type Store struct {
	roots     map[uint64]*Certificate // by serial
	untrusted map[uint64]string       // serial -> reason
	memo      *sigMemo
}

// NewStore returns a store trusting the given roots.
func NewStore(roots ...*Certificate) *Store {
	s := &Store{
		roots:     make(map[uint64]*Certificate, len(roots)),
		untrusted: make(map[uint64]string),
		memo:      newSigMemo(),
	}
	for _, r := range roots {
		s.roots[r.Serial] = r
	}
	return s
}

// AddRoot adds a trusted root.
func (s *Store) AddRoot(c *Certificate) {
	roots := maps.Clone(s.roots)
	roots[c.Serial] = c
	s.roots = roots
}

// Distrust moves a certificate (by serial) into the untrusted store; any
// chain containing it then fails verification. This models the advisory
// update that moved three Microsoft certificates to the Untrusted store.
func (s *Store) Distrust(serial uint64, reason string) {
	untrusted := maps.Clone(s.untrusted)
	untrusted[serial] = reason
	s.untrusted = untrusted
}

// IsDistrusted reports whether a serial is in the untrusted store.
func (s *Store) IsDistrusted(serial uint64) bool {
	_, ok := s.untrusted[serial]
	return ok
}

// Clone returns an independent copy (each simulated host owns its store and
// receives advisory updates separately). The copy shares the signature
// memo, so one verification serves every host cloned from the same store.
func (s *Store) Clone() *Store {
	c := *s
	return &c
}

// digestSize is the length of every digest a signature covers: both
// DigestData algorithms and pe.File.Digest return 32 bytes.
const digestSize = 32

// sigKey is the full input of one Ed25519 verification: public key,
// digest and signature, byte for byte.
type sigKey [ed25519.PublicKeySize + digestSize + ed25519.SignatureSize]byte

// sigMemo remembers Ed25519 verifications that succeeded. ed25519.Verify
// is a pure function of its three inputs, so a hit answers exactly what a
// fresh call would. Only successes are stored, and only inputs of the
// canonical sizes are keyed, so forged or malformed signatures cannot grow
// the set. Hosts of a partitioned world verify on several goroutines at
// once, hence the mutex.
type sigMemo struct {
	mu sync.Mutex
	ok map[sigKey]struct{}
}

func newSigMemo() *sigMemo { return &sigMemo{ok: make(map[sigKey]struct{})} }

func (m *sigMemo) verify(pub ed25519.PublicKey, digest, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(digest) != digestSize || len(sig) != ed25519.SignatureSize {
		return ed25519.Verify(pub, digest, sig)
	}
	var k sigKey
	n := copy(k[:], pub)
	n += copy(k[n:], digest)
	copy(k[n:], sig)
	m.mu.Lock()
	_, hit := m.ok[k]
	m.mu.Unlock()
	if hit {
		return true
	}
	if !ed25519.Verify(pub, digest, sig) {
		return false
	}
	m.mu.Lock()
	m.ok[k] = struct{}{}
	m.mu.Unlock()
	return true
}

// Verification errors that callers match on.
var (
	ErrEmptyChain     = errors.New("pki: empty certificate chain")
	ErrUntrustedRoot  = errors.New("pki: chain does not terminate at a trusted root")
	ErrDistrusted     = errors.New("pki: certificate is in the untrusted store")
	ErrExpired        = errors.New("pki: certificate outside validity window")
	ErrBadSignature   = errors.New("pki: signature verification failed")
	ErrUsage          = errors.New("pki: certificate not valid for requested usage")
	ErrNotCA          = errors.New("pki: intermediate is not a CA")
	ErrIssuerMismatch = errors.New("pki: issuer name does not match parent subject")
)

// VerifyChain validates chain[0] (the leaf) for the requested usage at time
// now. chain[1:] are intermediates ordered leaf→root-most; the last element
// must have been issued by (or be) a root in the store.
//
// The signature check verifies the issuer's Ed25519 signature over the
// certificate's digest. Crucially the digest algorithm is the one recorded
// in the certificate — so a weak-hash collision transplant passes, exactly
// as the flawed production algorithm did.
func (s *Store) VerifyChain(now time.Time, usage KeyUsage, chain ...*Certificate) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	for i, c := range chain {
		if s.IsDistrusted(c.Serial) {
			return fmt.Errorf("%w: %q (serial %d)", ErrDistrusted, c.Subject, c.Serial)
		}
		if now.Before(c.NotBefore) || now.After(c.NotAfter) {
			return fmt.Errorf("%w: %q", ErrExpired, c.Subject)
		}
		if i > 0 && c.Usages&UsageCA == 0 {
			return fmt.Errorf("%w: %q", ErrNotCA, c.Subject)
		}
	}
	leaf := chain[0]
	if leaf.Usages&usage == 0 {
		return fmt.Errorf("%w: %q has %v, requested %v", ErrUsage, leaf.Subject, leaf.Usages, usage)
	}
	// Walk signatures: each cert must be signed by the next one's key; the
	// last must be signed by a trusted root's key (or be that root).
	for i, c := range chain {
		var issuerCert *Certificate
		if i+1 < len(chain) {
			issuerCert = chain[i+1]
		} else {
			issuerCert = s.findRootFor(c)
			if issuerCert == nil {
				return fmt.Errorf("%w: leaf %q, unresolved issuer %q", ErrUntrustedRoot, leaf.Subject, c.Issuer)
			}
			if s.IsDistrusted(issuerCert.Serial) {
				return fmt.Errorf("%w: root %q", ErrDistrusted, issuerCert.Subject)
			}
		}
		if c.Issuer != issuerCert.Subject {
			return fmt.Errorf("%w: %q claims issuer %q, parent is %q", ErrIssuerMismatch, c.Subject, c.Issuer, issuerCert.Subject)
		}
		if !s.memo.verify(issuerCert.PubKey, c.Digest(), c.Signature) {
			return fmt.Errorf("%w: %q", ErrBadSignature, c.Subject)
		}
	}
	return nil
}

// findRootFor locates the trusted root whose subject matches c's issuer, or
// c itself if c is a trusted self-signed root. When several roots share
// that subject the lowest serial wins, so the key checked never depends on
// map order (DESIGN.md §5).
func (s *Store) findRootFor(c *Certificate) *Certificate {
	if root, ok := s.roots[c.Serial]; ok && c.Issuer == c.Subject {
		return root
	}
	var found *Certificate
	for _, root := range s.roots {
		if root.Subject == c.Issuer && (found == nil || root.Serial < found.Serial) {
			found = root
		}
	}
	return found
}

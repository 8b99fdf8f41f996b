package pki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/pe"
)

// Store is a host's certificate trust configuration: trusted roots plus the
// Untrusted Certificate Store that Microsoft Security Advisory 2718704
// populated to kill the Flame certificates (paper, Section III-A).
//
// A store also points at a memo that NewStore creates and Clone shares
// (DESIGN.md §9 items 6 and 7): verified signatures and the digests of
// shared image buffers. The memo holds facts about bytes, not trust
// decisions: roots and distrust stay per store.
type Store struct {
	roots     map[uint64]*Certificate // by serial
	untrusted map[uint64]string       // serial -> reason
	memo      *memo
}

// NewStore returns a store trusting the given roots, with an empty memo
// of its own.
func NewStore(roots ...*Certificate) *Store {
	s := &Store{
		roots:     make(map[uint64]*Certificate, len(roots)),
		untrusted: make(map[uint64]string),
		memo:      &memo{ok: make(map[sigKey]struct{}), images: make(map[bufKey]sharedImage)},
	}
	for _, r := range roots {
		s.roots[r.Serial] = r
	}
	return s
}

// AddRoot adds a trusted root.
func (s *Store) AddRoot(c *Certificate) { s.roots[c.Serial] = c }

// Distrust moves a certificate (by serial) into the untrusted store; any
// chain containing it then fails verification. This models the advisory
// update that moved three Microsoft certificates to the Untrusted store.
func (s *Store) Distrust(serial uint64, reason string) {
	s.untrusted[serial] = reason
}

// IsDistrusted reports whether a serial is in the untrusted store.
func (s *Store) IsDistrusted(serial uint64) bool {
	_, ok := s.untrusted[serial]
	return ok
}

// Clone returns a copy whose roots and untrusted store are independent of
// s (each simulated host owns its trust configuration and receives
// advisory updates separately) and whose memo is s's: a world's base
// store and every host clone of it verify a given signature, and hash a
// given shared image buffer, once between them.
func (s *Store) Clone() *Store {
	c := &Store{
		roots:     make(map[uint64]*Certificate, len(s.roots)),
		untrusted: make(map[uint64]string, len(s.untrusted)),
		memo:      s.memo,
	}
	for k, v := range s.roots {
		c.roots[k] = v
	}
	for k, v := range s.untrusted {
		c.untrusted[k] = v
	}
	return c
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
//
// Every check runs on every call; only the Ed25519 verification of a
// (key, digest, signature) triple that already verified through this
// store's memo is answered from the memo. The digest itself is recomputed
// each time, so a changed certificate misses.
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
// c itself if c is a trusted self-signed root.
func (s *Store) findRootFor(c *Certificate) *Certificate {
	if root, ok := s.roots[c.Serial]; ok && c.Issuer == c.Subject {
		return root
	}
	for _, root := range s.roots {
		if root.Subject == c.Issuer {
			return root
		}
	}
	return nil
}

// memo records facts about immutable bytes that a store lineage
// established once. Ed25519 checks that succeeded are keyed by the exact
// bytes checked. Image parses and their digests are keyed by the identity
// of a buffer nothing writes (see SharedImage). Failures and
// errors are never recorded, so a miss always reruns the work, and an
// answer can differ from a memo-free one only if the same bytes gave two
// answers, which Ed25519, SHA-256 and pe.Parse rule out. It needs no
// size bound: a store lineage only ever sees its own world's signed
// certificates and images and its own world's shared image buffers, a
// handful of each.
type memo struct {
	mu     sync.Mutex
	ok     map[sigKey]struct{}
	images map[bufKey]sharedImage
}

// sharedImage is a shared buffer's parse and the image's digest.
type sharedImage struct {
	img    *pe.File
	digest [32]byte
}

// sigKey is public key, digest and signature, concatenated.
type sigKey [ed25519.PublicKeySize + sha256.Size + ed25519.SignatureSize]byte

// bufKey is a buffer's identity: its first byte and its length. The
// pointer keeps the buffer's array alive as long as the memo, so no other
// buffer can take its address while its entry stands.
type bufKey struct {
	first *byte
	n     int
}

// verify is ed25519.Verify(pub, digest, sig) through the memo. Inputs of
// any other length than a sigKey holds go straight to ed25519.Verify.
func (m *memo) verify(pub ed25519.PublicKey, digest, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(digest) != sha256.Size || len(sig) != ed25519.SignatureSize {
		return ed25519.Verify(pub, digest, sig)
	}
	var k sigKey
	copy(k[:], pub)
	copy(k[ed25519.PublicKeySize:], digest)
	copy(k[ed25519.PublicKeySize+sha256.Size:], sig)
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

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
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// SealKeypair is the attack coordinator's X25519 key pair. The public half
// is provisioned onto every C&C server; the private half never leaves the
// attack center.
type SealKeypair struct {
	Public  *ecdh.PublicKey
	private *ecdh.PrivateKey
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
	return &SealKeypair{Public: priv.PublicKey(), private: priv}, nil
}

// Seal encrypts plaintext to the coordinator public key: an ephemeral
// X25519 exchange derives a SHA-256 keystream that whitens the payload.
// (Confidentiality-only, as the real deployment's GPG-like sealing was;
// integrity is not the property the paper discusses.)
func Seal(pub *ecdh.PublicKey, rng *sim.RNG, plaintext []byte) ([]byte, error) {
	eph, err := deterministicX25519Key(rng)
	if err != nil {
		return nil, fmt.Errorf("cnc: seal: %w", err)
	}
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("cnc: seal: %w", err)
	}
	out := make([]byte, 32+len(plaintext))
	copy(out, eph.PublicKey().Bytes())
	keystreamXOR(shared, plaintext, out[32:])
	return out, nil
}

// ErrSealedTooShort is returned for malformed sealed blobs.
var ErrSealedTooShort = errors.New("cnc: sealed blob too short")

// Open decrypts a sealed blob with the coordinator private key.
func (kp *SealKeypair) Open(blob []byte) ([]byte, error) {
	if len(blob) < 32 {
		return nil, ErrSealedTooShort
	}
	ephPub, err := ecdh.X25519().NewPublicKey(blob[:32])
	if err != nil {
		return nil, fmt.Errorf("cnc: open: %w", err)
	}
	shared, err := kp.private.ECDH(ephPub)
	if err != nil {
		return nil, fmt.Errorf("cnc: open: %w", err)
	}
	out := make([]byte, len(blob)-32)
	keystreamXOR(shared, blob[32:], out)
	return out, nil
}

// keystreamXOR XORs src into dst under a SHA-256 counter-mode keystream
// keyed by the shared secret: block i is SHA-256(shared || uint64le(i)).
func keystreamXOR(shared, src, dst []byte) {
	var block [40]byte
	copy(block[:32], shared)
	for counter := uint64(0); len(src) > 0; counter++ {
		binary.LittleEndian.PutUint64(block[32:], counter)
		ks := sha256.Sum256(block[:])
		n := subtle.XORBytes(dst, src, ks[:])
		dst, src = dst[n:], src[n:]
	}
}

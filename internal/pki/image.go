package pki

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/pe"
)

// ImageSignature is the decoded content of an SPE signature blob: the
// certificate chain (leaf first) and the leaf key's signature over the
// image digest.
type ImageSignature struct {
	Chain     []*Certificate
	Signature []byte
}

// SignImage attaches to img a signature by key under the given chain.
// chain[0] must be the certificate for key's public part. This is how the
// stolen JMicron/Realtek keys signed Stuxnet's rootkit drivers, how Eldos
// signed the raw-disk driver Shamoon abused, and how the forged Microsoft
// certificate signed Flame's fake Windows Update.
func SignImage(img *pe.File, key *Keypair, chain ...*Certificate) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	if !chain[0].PubKey.Equal(key.Public) {
		return fmt.Errorf("pki: leaf certificate %q does not match signing key", chain[0].Subject)
	}
	digest, err := img.Digest()
	if err != nil {
		return fmt.Errorf("sign image: %w", err)
	}
	sig := ImageSignature{Chain: chain, Signature: key.Sign(digest[:])}
	img.SigBlob = sig.marshal()
	return nil
}

// VerifyImage checks img's signature blob: the chain must validate in the
// store for the requested usage at time now, and the leaf key's signature
// must cover the image digest. It returns the decoded signature on success
// so callers can inspect the signer identity.
//
// The blob is parsed, the chain checked and the image digest recomputed on
// every call; the two Ed25519 checks go through the store's memo (see
// VerifyChain), so a host whose sibling already verified these exact bytes
// skips only the curve arithmetic.
func VerifyImage(img *pe.File, store *Store, now time.Time, usage KeyUsage) (*ImageSignature, error) {
	if len(img.SigBlob) == 0 {
		return nil, errors.New("pki: image is unsigned")
	}
	sig, err := parseImageSignature(img.SigBlob)
	if err != nil {
		return nil, err
	}
	if err := store.VerifyChain(now, usage, sig.Chain...); err != nil {
		return nil, err
	}
	digest, err := img.Digest()
	if err != nil {
		return nil, err
	}
	if !store.memo.verify(sig.Chain[0].PubKey, digest[:], sig.Signature) {
		return nil, fmt.Errorf("%w: image digest", ErrBadSignature)
	}
	return sig, nil
}

// ImageDigest returns pe.Parse(b) then Digest, through the store's memo
// (DESIGN.md §9 item 6). b must be a buffer nothing writes while the
// store lineage lives, the contract of host.FS.WriteShared. The key is
// b's identity, its first byte and its length, never its content and
// never a *pe.File. A buffer that fails to parse or digest returns the
// same error on every call and is never recorded.
func (s *Store) ImageDigest(b []byte) ([32]byte, error) {
	if len(b) == 0 {
		return imageDigest(b)
	}
	k := bufKey{first: &b[0], n: len(b)}
	m := s.memo
	m.mu.Lock()
	d, hit := m.digests[k]
	m.mu.Unlock()
	if hit {
		return d, nil
	}
	d, err := imageDigest(b)
	if err != nil {
		return d, err
	}
	m.mu.Lock()
	m.digests[k] = d
	m.mu.Unlock()
	return d, nil
}

func imageDigest(b []byte) ([32]byte, error) {
	img, err := pe.Parse(b)
	if err != nil {
		return [32]byte{}, err
	}
	return img.Digest()
}

// marshal encodes the signature blob:
//
//	count u16, certs (framed), siglen u16 + sig
func (s *ImageSignature) marshal() []byte {
	var b bytes.Buffer
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(s.Chain)))
	b.Write(tmp[:])
	for _, c := range s.Chain {
		enc := marshalCert(c)
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(enc)))
		b.Write(l[:])
		b.Write(enc)
	}
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(s.Signature)))
	b.Write(tmp[:])
	b.Write(s.Signature)
	return b.Bytes()
}

func parseImageSignature(blob []byte) (*ImageSignature, error) {
	r := blobReader{buf: blob}
	count, err := r.u16()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > 16 {
		return nil, fmt.Errorf("pki: implausible chain length %d", count)
	}
	sig := &ImageSignature{Chain: make([]*Certificate, 0, count)}
	for i := 0; i < int(count); i++ {
		enc, err := r.framed()
		if err != nil {
			return nil, err
		}
		cert, err := parseCert(enc)
		if err != nil {
			return nil, fmt.Errorf("pki: chain cert %d: %w", i, err)
		}
		sig.Chain = append(sig.Chain, cert)
	}
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	raw, err := r.next(int(n))
	if err != nil {
		return nil, err
	}
	sig.Signature = bytes.Clone(raw)
	if r.pos != len(r.buf) {
		return nil, errors.New("pki: trailing bytes in signature blob")
	}
	return sig, nil
}

// marshalCert serializes the full certificate (TBS fields + signature)
// using a framed layout independent of TBS so padding round-trips exactly.
func marshalCert(c *Certificate) []byte {
	var b bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], c.Serial)
	b.Write(tmp[:])
	writeFramed(&b, []byte(c.Subject))
	writeFramed(&b, []byte(c.Issuer))
	binary.LittleEndian.PutUint64(tmp[:], uint64(c.Usages))
	b.Write(tmp[:])
	b.WriteByte(byte(c.SigAlgo))
	binary.LittleEndian.PutUint64(tmp[:], uint64(c.NotBefore.Unix()))
	b.Write(tmp[:])
	binary.LittleEndian.PutUint64(tmp[:], uint64(c.NotAfter.Unix()))
	b.Write(tmp[:])
	writeFramed(&b, c.PubKey)
	writeFramed(&b, c.Padding)
	writeFramed(&b, c.Signature)
	return b.Bytes()
}

func parseCert(enc []byte) (*Certificate, error) {
	r := blobReader{buf: enc}
	c := &Certificate{}
	serial, err := r.u64()
	if err != nil {
		return nil, err
	}
	c.Serial = serial
	sub, err := r.framed()
	if err != nil {
		return nil, err
	}
	c.Subject = string(sub)
	iss, err := r.framed()
	if err != nil {
		return nil, err
	}
	c.Issuer = string(iss)
	usages, err := r.u64()
	if err != nil {
		return nil, err
	}
	if usages > math.MaxUint16 {
		return nil, fmt.Errorf("pki: usage word %#x out of range", usages)
	}
	c.Usages = KeyUsage(usages)
	algo, err := r.next(1)
	if err != nil {
		return nil, err
	}
	c.SigAlgo = HashAlgo(algo[0])
	nb, err := r.u64()
	if err != nil {
		return nil, err
	}
	c.NotBefore = time.Unix(int64(nb), 0).UTC()
	na, err := r.u64()
	if err != nil {
		return nil, err
	}
	c.NotAfter = time.Unix(int64(na), 0).UTC()
	pub, err := r.framed()
	if err != nil {
		return nil, err
	}
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("pki: bad public key length %d", len(pub))
	}
	c.PubKey = ed25519.PublicKey(bytes.Clone(pub))
	pad, err := r.framed()
	if err != nil {
		return nil, err
	}
	if len(pad) > 0 {
		c.Padding = bytes.Clone(pad)
	}
	sig, err := r.framed()
	if err != nil {
		return nil, err
	}
	c.Signature = bytes.Clone(sig)
	if r.pos != len(r.buf) {
		return nil, errors.New("pki: trailing bytes in certificate")
	}
	return c, nil
}

// blobReader reads a signature blob in place: next and framed return
// slices of buf, so a caller that keeps bytes copies them.
type blobReader struct {
	buf []byte
	pos int
}

func (r *blobReader) next(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, errors.New("pki: truncated blob")
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *blobReader) u16() (uint16, error) {
	b, err := r.next(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *blobReader) u32() (uint32, error) {
	b, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *blobReader) u64() (uint64, error) {
	b, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *blobReader) framed() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	return r.next(int(n))
}

func writeFramed(b *bytes.Buffer, data []byte) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(data)))
	b.Write(l[:])
	b.Write(data)
}

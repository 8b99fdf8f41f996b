// Package pe implements SPE, the synthetic Portable-Executable-like binary
// format used by every sample in the cyber-range.
//
// SPE reproduces the structural features the paper's dissection relies on —
// named sections, an import table, numbered resources that may be stored
// XOR-encrypted (Shamoon's TrkSvr.exe), a machine word (the 64-bit variant
// shipped as a resource), and a detachable signature blob (signed rootkit
// drivers, the forged Windows Update binary) — in a compact little-endian
// encoding of our own design. It is not a real PE and cannot execute.
package pe

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"time"
)

// Magic identifies an SPE image.
var Magic = [4]byte{'S', 'P', 'E', '1'}

// Machine is the target architecture word.
type Machine uint16

// Architectures used by the modelled samples.
const (
	MachineX86 Machine = 0x014c
	MachineX64 Machine = 0x8664
)

func (m Machine) String() string {
	switch m {
	case MachineX86:
		return "x86"
	case MachineX64:
		return "x64"
	default:
		return fmt.Sprintf("machine(%#x)", uint16(m))
	}
}

// Section characteristics flags.
const (
	SecCode  uint32 = 1 << 0
	SecData  uint32 = 1 << 1
	SecRsrc  uint32 = 1 << 2
	SecExec  uint32 = 1 << 3
	SecWrite uint32 = 1 << 4
)

// Section is a named region of the image.
type Section struct {
	Name            string
	Characteristics uint32
	Data            []byte
}

// Import names one library and the functions taken from it.
type Import struct {
	Library   string
	Functions []string
}

// Resource is a numbered payload embedded in the image. Raw holds the bytes
// exactly as stored: for encrypted resources that is the XOR ciphertext —
// the key is never stored in the file, mirroring how Shamoon's resources
// required key recovery during dissection.
type Resource struct {
	ID  uint16
	Raw []byte
}

// File is a parsed or under-construction SPE image.
type File struct {
	Name       string // image name, e.g. "TrkSvr.exe"
	Machine    Machine
	Timestamp  time.Time
	EntryPoint uint32
	Sections   []Section
	Imports    []Import
	Resources  []Resource
	// SigBlob is an opaque signature attachment (produced and checked by
	// the pki package). It is excluded from Digest.
	SigBlob []byte
}

// Hard limits enforced by Marshal and Parse. They are generous for the
// modelled samples but keep a hostile input from ballooning memory.
const (
	maxNameLen    = 255
	maxSections   = 64
	maxImports    = 256
	maxFunctions  = 1024
	maxResources  = 128
	maxSectionLen = 64 << 20
	maxTotalLen   = 128 << 20
)

// Marshal encodes the image. The layout is:
//
//	magic[4] machine u16 flags u16 timestamp i64 entry u32
//	name: u8 len + bytes
//	sections u16: (name u8, chars u32, data u32+bytes)*
//	imports u16: (lib u8, funcs u16: (name u8)*)*
//	resources u16: (id u16, data u32+bytes)*
//	sig u32 + bytes
//
// All integers are little-endian.
func (f *File) Marshal() ([]byte, error) {
	n, err := f.encodedSize(true)
	if err != nil {
		return nil, err
	}
	e := encoder{buf: make([]byte, 0, n)}
	f.encode(&e, true)
	return e.buf, nil
}

// encode writes the layout Marshal documents, ending in the signature
// blob when withSig is set and in an empty one otherwise. Marshal and
// Digest both run it, so the wire format is written down once.
func (f *File) encode(e *encoder, withSig bool) {
	put(e, Magic[:])
	e.u16(uint16(f.Machine))
	e.u16(0) // flags, reserved
	e.u64(uint64(f.Timestamp.Unix()))
	e.u32(f.EntryPoint)
	e.str8(f.Name)

	e.u16(uint16(len(f.Sections)))
	for _, s := range f.Sections {
		e.str8(s.Name)
		e.u32(s.Characteristics)
		e.bytes32(s.Data)
	}

	e.u16(uint16(len(f.Imports)))
	for _, imp := range f.Imports {
		e.str8(imp.Library)
		e.u16(uint16(len(imp.Functions)))
		for _, fn := range imp.Functions {
			e.str8(fn)
		}
	}

	e.u16(uint16(len(f.Resources)))
	for _, r := range f.Resources {
		e.u16(r.ID)
		e.bytes32(r.Raw)
	}

	var sig []byte
	if withSig {
		sig = f.SigBlob
	}
	e.bytes32(sig)
}

// encodedSize validates the image and returns its encoded length, with
// or without the signature blob. It fails where Marshal fails, with the
// same errors, before anything is encoded.
func (f *File) encodedSize(withSig bool) (int, error) {
	if err := f.validate(); err != nil {
		return 0, err
	}
	n := f.marshalledSize()
	if !withSig {
		n -= len(f.SigBlob)
	}
	if n > maxTotalLen {
		return 0, fmt.Errorf("pe: image %q exceeds %d bytes", f.Name, maxTotalLen)
	}
	return n, nil
}

// marshalledSize computes the exact encoded length so Marshal can size its
// buffer once. Growing incrementally doubled through every resource-laden
// image and dominated fleet-scale infection allocations.
func (f *File) marshalledSize() int {
	n := 4 + 2 + 2 + 8 + 4 // magic, machine, flags, timestamp, entry
	n += 1 + len(f.Name)
	n += 2
	for _, s := range f.Sections {
		n += 1 + len(s.Name) + 4 + 4 + len(s.Data)
	}
	n += 2
	for _, imp := range f.Imports {
		n += 1 + len(imp.Library) + 2
		for _, fn := range imp.Functions {
			n += 1 + len(fn)
		}
	}
	n += 2
	for _, r := range f.Resources {
		n += 2 + 4 + len(r.Raw)
	}
	n += 4 + len(f.SigBlob)
	return n
}

func (f *File) validate() error {
	switch {
	case len(f.Name) > maxNameLen:
		return fmt.Errorf("pe: image name too long (%d)", len(f.Name))
	case len(f.Sections) > maxSections:
		return fmt.Errorf("pe: too many sections (%d)", len(f.Sections))
	case len(f.Imports) > maxImports:
		return fmt.Errorf("pe: too many imports (%d)", len(f.Imports))
	case len(f.Resources) > maxResources:
		return fmt.Errorf("pe: too many resources (%d)", len(f.Resources))
	}
	for _, s := range f.Sections {
		if len(s.Name) > maxNameLen {
			return fmt.Errorf("pe: section name too long (%d)", len(s.Name))
		}
		if len(s.Data) > maxSectionLen {
			return fmt.Errorf("pe: section %q too large (%d)", s.Name, len(s.Data))
		}
	}
	for _, imp := range f.Imports {
		if len(imp.Library) > maxNameLen {
			return fmt.Errorf("pe: import library name too long (%d)", len(imp.Library))
		}
		if len(imp.Functions) > maxFunctions {
			return fmt.Errorf("pe: import %q has too many functions (%d)", imp.Library, len(imp.Functions))
		}
		for _, fn := range imp.Functions {
			if len(fn) > maxNameLen {
				return fmt.Errorf("pe: import function name too long (%d)", len(fn))
			}
		}
	}
	for _, r := range f.Resources {
		if len(r.Raw) > maxSectionLen {
			return fmt.Errorf("pe: resource %d too large (%d)", r.ID, len(r.Raw))
		}
	}
	return nil
}

// Digest returns the SHA-256 of the image with the signature blob removed.
// It is the value that signatures cover and the sample-identity key used by
// the malware behaviour registry. The encoding streams into the hash as it
// is written, so no copy of the image is made: fixed fields and names pass
// through a one-block scratch buffer, and section and resource payloads go
// in as they are.
func (f *File) Digest() ([32]byte, error) {
	var d [32]byte
	if _, err := f.encodedSize(false); err != nil {
		return d, err
	}
	e := encoder{buf: make([]byte, 0, digestScratch), h: sha256.New()}
	f.encode(&e, false)
	e.flush()
	copy(d[:], e.h.Sum(e.buf[:0]))
	return d, nil
}

// MustDigest is Digest for images already known to marshal; it panics on
// malformed images (a programming error in scenario construction).
func (f *File) MustDigest() [32]byte {
	d, err := f.Digest()
	if err != nil {
		panic(fmt.Sprintf("pe: MustDigest(%q): %v", f.Name, err))
	}
	return d
}

// Size returns the marshalled size in bytes, or 0 for malformed images.
func (f *File) Size() int {
	n, err := f.encodedSize(true)
	if err != nil {
		return 0
	}
	return n
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// Resource returns the resource with the given id, or nil.
func (f *File) Resource(id uint16) *Resource {
	for i := range f.Resources {
		if f.Resources[i].ID == id {
			return &f.Resources[i]
		}
	}
	return nil
}

// AddEncryptedResource embeds plaintext as resource id, XOR-encrypted with
// key. The key is not stored in the image.
func (f *File) AddEncryptedResource(id uint16, key, plaintext []byte) {
	f.Resources = append(f.Resources, Resource{ID: id, Raw: XOR(plaintext, key)})
}

// ErrBadMagic is returned by Parse for non-SPE input.
var ErrBadMagic = errors.New("pe: bad magic (not an SPE image)")

// encoder writes the SPE layout to one of two sinks. Without a hash, buf
// is the output, pre-sized by Marshal to the exact encoded length. With
// one, buf is a scratch buffer of digestScratch bytes that is flushed into
// the hash whenever it fills, and payloads that do not fit in it go to
// the hash directly.
type encoder struct {
	buf []byte
	h   hash.Hash
}

// digestScratch is the hashing encoder's scratch size: one SHA-256 block.
// It holds the widest fixed integer and the digest Sum appends into it.
const digestScratch = sha256.BlockSize

// room flushes a hashing encoder's scratch if n more bytes would not fit.
func (e *encoder) room(n int) {
	if e.h != nil && len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *encoder) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}

// put appends b. A hashing encoder fills its scratch and flushes it as
// often as b needs.
func put[T string | []byte](e *encoder, b T) {
	for e.h != nil && len(e.buf)+len(b) > cap(e.buf) {
		n := copy(e.buf[len(e.buf):cap(e.buf)], b)
		e.buf = e.buf[:cap(e.buf)]
		e.flush()
		b = b[n:]
	}
	e.buf = append(e.buf, b...)
}

func (e *encoder) u16(v uint16) {
	e.room(2)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

func (e *encoder) u32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *encoder) str8(s string) {
	e.room(1)
	e.buf = append(e.buf, byte(len(s)))
	put(e, s)
}

func (e *encoder) bytes32(data []byte) {
	e.u32(uint32(len(data)))
	if e.h != nil && len(e.buf)+len(data) > cap(e.buf) {
		e.flush()
		e.h.Write(data)
		return
	}
	e.buf = append(e.buf, data...)
}

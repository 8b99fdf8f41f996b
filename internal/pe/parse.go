package pe

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Parse decodes an SPE image, validating every length field against both
// the declared limits and the remaining input so that truncated or hostile
// input fails cleanly instead of panicking.
//
// Parse does not copy payloads: section data, resource bytes and the
// signature blob of the result are subslices of raw, so the caller must
// not write raw while the image is in use. Each subslice has its capacity
// clipped to its length, so an append to one copies it rather than
// writing into raw. Names and function names are copied into strings.
func Parse(raw []byte) (*File, error) {
	r := reader{buf: raw}
	magic, err := r.take(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(Magic[:]) {
		return nil, ErrBadMagic
	}
	f := &File{}
	machine, err := r.u16()
	if err != nil {
		return nil, err
	}
	f.Machine = Machine(machine)
	if _, err := r.u16(); err != nil { // flags, reserved
		return nil, err
	}
	ts, err := r.i64()
	if err != nil {
		return nil, err
	}
	f.Timestamp = time.Unix(ts, 0).UTC()
	if f.EntryPoint, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Name, err = r.str8(); err != nil {
		return nil, err
	}

	nsec, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nsec > maxSections {
		return nil, fmt.Errorf("pe: section count %d exceeds limit", nsec)
	}
	f.Sections = make([]Section, 0, nsec)
	for i := 0; i < int(nsec); i++ {
		var s Section
		if s.Name, err = r.str8(); err != nil {
			return nil, fmt.Errorf("pe: section %d: %w", i, err)
		}
		if s.Characteristics, err = r.u32(); err != nil {
			return nil, fmt.Errorf("pe: section %d: %w", i, err)
		}
		if s.Data, err = r.bytes32(); err != nil {
			return nil, fmt.Errorf("pe: section %q: %w", s.Name, err)
		}
		f.Sections = append(f.Sections, s)
	}

	nimp, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nimp > maxImports {
		return nil, fmt.Errorf("pe: import count %d exceeds limit", nimp)
	}
	f.Imports = make([]Import, 0, nimp)
	for i := 0; i < int(nimp); i++ {
		var imp Import
		if imp.Library, err = r.str8(); err != nil {
			return nil, fmt.Errorf("pe: import %d: %w", i, err)
		}
		nfn, err := r.u16()
		if err != nil {
			return nil, fmt.Errorf("pe: import %q: %w", imp.Library, err)
		}
		if nfn > maxFunctions {
			return nil, fmt.Errorf("pe: import %q function count %d exceeds limit", imp.Library, nfn)
		}
		imp.Functions = make([]string, 0, nfn)
		for j := 0; j < int(nfn); j++ {
			fn, err := r.str8()
			if err != nil {
				return nil, fmt.Errorf("pe: import %q function %d: %w", imp.Library, j, err)
			}
			imp.Functions = append(imp.Functions, fn)
		}
		f.Imports = append(f.Imports, imp)
	}

	nres, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nres > maxResources {
		return nil, fmt.Errorf("pe: resource count %d exceeds limit", nres)
	}
	f.Resources = make([]Resource, 0, nres)
	for i := 0; i < int(nres); i++ {
		var res Resource
		if res.ID, err = r.u16(); err != nil {
			return nil, fmt.Errorf("pe: resource %d: %w", i, err)
		}
		if res.Raw, err = r.bytes32(); err != nil {
			return nil, fmt.Errorf("pe: resource %d: %w", res.ID, err)
		}
		f.Resources = append(f.Resources, res)
	}

	if f.SigBlob, err = r.bytes32(); err != nil {
		return nil, fmt.Errorf("pe: signature blob: %w", err)
	}
	if len(f.SigBlob) == 0 {
		f.SigBlob = nil
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("pe: %d trailing bytes after image", len(r.buf)-r.pos)
	}
	return f, nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("pe: truncated input (need %d bytes at offset %d of %d)", n, r.pos, len(r.buf))
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) i64() (int64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) str8() (string, error) {
	lb, err := r.take(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(int(lb[0]))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) bytes32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxSectionLen {
		return nil, fmt.Errorf("pe: declared length %d exceeds limit", n)
	}
	b, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return b[:len(b):len(b)], nil
}

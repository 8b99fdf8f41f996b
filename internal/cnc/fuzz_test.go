package cnc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// packageSeeds returns the seed corpus of FuzzDecodePackages: a module
// push beside a targeted domain update, zero packages, a count of 4,097,
// the push cut short mid-frame, and the push with one trailing byte.
func packageSeeds() [][]byte {
	push := encodePackages([]*Package{
		{Name: "module:snack", Payload: []byte("function run(host) return scan(host) end"), Span: 7},
		{Name: PkgDomainUpdate, Target: "FL-0001", Payload: []byte("a.example\nb.example"), Span: 9},
	})
	tooMany := make([]byte, 4)
	binary.LittleEndian.PutUint32(tooMany, 4097)
	return [][]byte{
		push,
		encodePackages(nil),
		tooMany,
		bytes.Clone(push[:len(push)/2]),
		append(bytes.Clone(push), 0),
	}
}

// FuzzDecodePackages holds the GET_NEWS body reader that every C&C
// client runs to the contract of every reader of external bytes: an
// error, never a panic or hang. A body it accepts must re-encode to
// exactly its input, so no two bodies decode to one package list.
func FuzzDecodePackages(f *testing.F) {
	for _, s := range packageSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		pkgs, err := DecodePackages(raw)
		if err != nil {
			return
		}
		if got := encodePackages(pkgs); !bytes.Equal(got, raw) {
			t.Fatalf("accepted body re-encodes differently:\n in  %x\n out %x", raw, got)
		}
	})
}

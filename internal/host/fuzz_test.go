package host

import (
	"bytes"
	"testing"
)

// mbrSeeds returns the seed corpus of FuzzParseMBR: NewDisk's MBR
// sector, an all-zero wiped sector, inputs of 0, 511 and 513 bytes, and
// a sector whose partition status bytes are neither 0x00 nor 0x80.
func mbrSeeds(tb testing.TB) [][]byte {
	s, err := NewDisk(1 << 21).ReadSector(0)
	if err != nil {
		tb.Fatal(err)
	}
	odd := bytes.Clone(s)
	odd[446], odd[462], odd[478] = 0x7F, 0x81, 0xFF
	odd[462+8] = 1 // a non-empty partition whose status is not 0x80
	return [][]byte{
		s,
		make([]byte, SectorSize),
		{},
		bytes.Clone(s[:SectorSize-1]),
		append(bytes.Clone(s), 0),
		odd,
	}
}

// FuzzParseMBR holds ParseMBR, the reader of a disk's first sector, to
// the contract of every reader of external bytes: an error, never a
// panic. A wrong length or a missing 0x55AA must be an error. An
// accepted sector must survive a Marshal round trip, and the disk's
// in-place Bootable must agree with the parsed partition table.
func FuzzParseMBR(f *testing.F) {
	for _, s := range mbrSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sector []byte) {
		m, err := ParseMBR(sector)
		wantErr := len(sector) != SectorSize || sector[510] != 0x55 || sector[511] != 0xAA
		if wantErr != (err != nil) {
			t.Fatalf("ParseMBR(%d bytes) err = %v, want an error: %v", len(sector), err, wantErr)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("ParseMBR returned %+v beside error %v", m, err)
			}
			return
		}
		back, err := ParseMBR(m.Marshal())
		if err != nil || *back != *m {
			t.Fatalf("ParseMBR(Marshal()) = %+v, %v; want %+v", back, err, m)
		}
		want := false
		for _, p := range m.Partitions {
			want = want || p.Active && p.Sectors > 0
		}
		d := NewDisk(1 << 12)
		if err := d.WriteSector(0, sector); err != nil {
			t.Fatal(err)
		}
		if got := d.Bootable(); got != want {
			t.Fatalf("Bootable() = %v, want %v for partitions %+v", got, want, m.Partitions)
		}
	})
}

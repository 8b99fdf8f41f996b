// Package host models a simulated Windows machine: a sector-addressed disk
// with an MBR, a case-insensitive filesystem, a registry, services and
// scheduled tasks, processes, kernel-driver loading with signature policy,
// a patch inventory that exploit gates consult, security products, and an
// event log. Hosts are pure in-memory state driven by the sim kernel.
package host

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// SectorSize is the disk sector size in bytes.
const SectorSize = 512

// bootSignature is the classic 0x55AA MBR trailer.
var bootSignature = [2]byte{0x55, 0xAA}

// Partition is one MBR partition-table entry.
type Partition struct {
	Active      bool
	StartSector uint32
	Sectors     uint32
}

// MBR is the master boot record: boot code, four partition entries, and the
// boot signature. Shamoon's wiper overwrites this structure (paper, IV-B).
type MBR struct {
	BootCode   [440]byte
	Partitions [4]Partition
}

// Marshal renders the MBR into a 512-byte sector image.
func (m *MBR) Marshal() []byte {
	out := make([]byte, SectorSize)
	copy(out, m.BootCode[:])
	off := 446
	for _, p := range m.Partitions {
		if p.Active {
			out[off] = 0x80
		}
		binary.LittleEndian.PutUint32(out[off+4:], p.StartSector)
		binary.LittleEndian.PutUint32(out[off+8:], p.Sectors)
		off += 16
	}
	out[510] = bootSignature[0]
	out[511] = bootSignature[1]
	return out
}

// ParseMBR decodes a 512-byte sector image. It returns an error if the boot
// signature is missing — the state a wiped disk is left in.
func ParseMBR(sector []byte) (*MBR, error) {
	m := new(MBR)
	if err := m.parse(sector); err != nil {
		return nil, err
	}
	return m, nil
}

var errNoBootSignature = errors.New("host: missing boot signature")

// parse decodes sector into m, reading it in place.
func (m *MBR) parse(sector []byte) error {
	if len(sector) != SectorSize {
		return fmt.Errorf("host: MBR sector is %d bytes, want %d", len(sector), SectorSize)
	}
	if sector[510] != bootSignature[0] || sector[511] != bootSignature[1] {
		return errNoBootSignature
	}
	copy(m.BootCode[:], sector[:440])
	off := 446
	for i := range m.Partitions {
		m.Partitions[i].Active = sector[off] == 0x80
		m.Partitions[i].StartSector = binary.LittleEndian.Uint32(sector[off+4:])
		m.Partitions[i].Sectors = binary.LittleEndian.Uint32(sector[off+8:])
		off += 16
	}
	return nil
}

// Disk is a lazily materialized sector store. Only non-zero sectors
// consume memory, which keeps 30,000-workstation fleet runs cheap: a
// sector never written and a sector overwritten with zeros are both
// absent and read as zeros.
type Disk struct {
	NumSectors int64
	written    map[int64][]byte
}

// zeroSector is what an absent sector reads as. Nothing writes to it.
var zeroSector [SectorSize]byte

// NewDisk creates a disk with an installed MBR: boot code present, one
// active partition spanning the rest of the disk.
func NewDisk(numSectors int64) *Disk {
	d := &Disk{NumSectors: numSectors, written: make(map[int64][]byte)}
	var mbr MBR
	copy(mbr.BootCode[:], "SIMBOOT: loads the simulated OS")
	mbr.Partitions[0] = Partition{Active: true, StartSector: 2048, Sectors: uint32(numSectors - 2048)}
	if numSectors > 0 {
		d.written[0] = mbr.Marshal() // a fresh sector nothing else holds
	}
	return d
}

// ErrSectorRange is returned for out-of-range sector addresses.
var ErrSectorRange = errors.New("host: sector out of range")

// sector returns sector n's stored bytes, or the zero sector if it has
// none. The result must not be written or kept.
func (d *Disk) sector(n int64) ([]byte, error) {
	if n < 0 || n >= d.NumSectors {
		return nil, fmt.Errorf("%w: %d", ErrSectorRange, n)
	}
	if s, ok := d.written[n]; ok {
		return s, nil
	}
	return zeroSector[:], nil
}

// ReadSector returns a copy of the sector's contents (zeros if never
// written).
func (d *Disk) ReadSector(n int64) ([]byte, error) {
	s, err := d.sector(n)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(s), nil
}

// WriteSector stores data (truncated/padded to SectorSize) at sector n.
// All-zero data removes the sector's stored bytes instead, since an
// absent sector reads as zeros.
func (d *Disk) WriteSector(n int64, data []byte) error {
	if n < 0 || n >= d.NumSectors {
		return fmt.Errorf("%w: %d", ErrSectorRange, n)
	}
	data = data[:min(len(data), SectorSize)]
	if bytes.Equal(data, zeroSector[:len(data)]) {
		delete(d.written, n)
		return nil
	}
	s := make([]byte, SectorSize)
	copy(s, data)
	d.written[n] = s
	return nil
}

// ReadMBR parses sector 0 in place.
func (d *Disk) ReadMBR() (MBR, error) {
	var m MBR
	s, err := d.sector(0)
	if err == nil {
		err = m.parse(s)
	}
	return m, err
}

// Bootable reports whether the disk still carries a valid MBR with an
// active partition.
func (d *Disk) Bootable() bool {
	mbr, err := d.ReadMBR()
	if err != nil {
		return false
	}
	for _, p := range mbr.Partitions {
		if p.Active && p.Sectors > 0 {
			return true
		}
	}
	return false
}

// Package plc models the industrial-control substrate of the Stuxnet
// attack: a PLC with a code-block store, a Profibus segment with frequency
// converter drives spinning centrifuges, the Step 7 engineering software
// that talks to the PLC *only* through a comm library (the s7otbxdx.dll
// indirection Stuxnet trojanized), an operator HMI, and a digital safety
// system. Centrifuge physics are a simple rotor-stress model calibrated so
// the paper's 1410→2→1064 Hz attack profile destroys machines while normal
// 807–1210 Hz operation never does.
package plc

import (
	"errors"
	"fmt"
	"sort"
)

// Frequency band constants from the paper (Section II-C).
const (
	// NormalHz is the steady enrichment operating frequency.
	NormalHz = 1064
	// TriggerMinHz..TriggerMaxHz is the band Stuxnet checks before
	// firing its payload.
	TriggerMinHz = 807
	TriggerMaxHz = 1210
	// AttackHighHz, AttackLowHz are the destructive excursion targets.
	AttackHighHz = 1410
	AttackLowHz  = 2
)

// Physics tuning.
const (
	// rotorAlpha is the per-tick first-order response of rotor speed to
	// the commanded frequency (ticks are one simulated minute).
	rotorAlpha = 0.5
	// overspeedLimitHz is where mechanical stress begins accumulating.
	overspeedLimitHz = 1250
	// overspeedStressRate converts Hz-above-limit to stress per minute,
	// tuned so a ~30-minute 1410 Hz excursion is fatal while brief
	// overshoots are survivable.
	overspeedStressRate = 0.03
	// decelStressThresholdHz is the commanded-step size beyond which a
	// transition shocks the rotor (resonance crossings).
	decelStressThresholdHz = 500
	// decelStressPerEvent is the stress added by one violent transition.
	decelStressPerEvent = 18
	// DestructionStress is the rotor fatigue limit.
	DestructionStress = 100
)

// Centrifuge is one IR-1-style machine.
type Centrifuge struct {
	ID        int
	RotorHz   float64
	Stress    float64
	Destroyed bool
}

// step advances the rotor one tick toward commanded frequency and
// accumulates stress.
func (c *Centrifuge) step(commandHz float64) {
	if c.Destroyed {
		c.RotorHz = 0
		return
	}
	prev := c.RotorHz
	c.RotorHz += (commandHz - c.RotorHz) * rotorAlpha
	if c.RotorHz > overspeedLimitHz {
		c.Stress += (c.RotorHz - overspeedLimitHz) * overspeedStressRate
	}
	if delta := prev - c.RotorHz; delta > decelStressThresholdHz || -delta > decelStressThresholdHz {
		c.Stress += decelStressPerEvent
	}
	if c.Stress >= DestructionStress {
		c.Destroyed = true
		c.RotorHz = 0
	}
}

// FrequencyConverter is a variable-frequency drive on the Profibus. The
// Vendor matters: Stuxnet fires only against the two vendors the paper
// names (one Finnish, one Iranian).
type FrequencyConverter struct {
	Index     int
	Vendor    string
	CommandHz float64
	machines  []*Centrifuge
}

// Vendors matching the paper's description.
const (
	VendorFinnish = "Vacon"
	VendorIranian = "Fararo Paya"
)

// ActualHz returns the mean rotor frequency of attached machines (what a
// sensor on the drive reports).
func (d *FrequencyConverter) ActualHz() float64 {
	if len(d.machines) == 0 {
		return d.CommandHz
	}
	var sum float64
	for _, m := range d.machines {
		sum += m.RotorHz
	}
	return sum / float64(len(d.machines))
}

// Machines returns the attached centrifuges.
func (d *FrequencyConverter) Machines() []*Centrifuge { return d.machines }

// Profibus is the field bus linking the PLC to drives.
type Profibus struct {
	// CPType is the communications-processor model; Stuxnet requires a
	// Profibus CP (paper, Section II-C).
	CPType string
	drives []*FrequencyConverter
}

// DefaultCPType is the Profibus communications processor model string.
const DefaultCPType = "CP 342-5 PROFIBUS"

// Drives returns the attached drives.
func (b *Profibus) Drives() []*FrequencyConverter { return b.drives }

// PLC is the programmable logic controller: a block store plus a set of
// named scan-cycle routines (the behavioural meaning of installed blocks).
type PLC struct {
	Name     string
	bus      *Profibus
	blocks   map[int][]byte
	routines map[string]Routine
	order    []string
}

// Routine is logic executed every PLC scan cycle.
type Routine func(p *PLC)

// NewPLC creates a PLC attached to the bus.
func NewPLC(name string, bus *Profibus) *PLC {
	return &PLC{
		Name:     name,
		bus:      bus,
		blocks:   make(map[int][]byte),
		routines: make(map[string]Routine),
	}
}

// Bus returns the attached Profibus.
func (p *PLC) Bus() *Profibus { return p.bus }

// writeBlock stores a code block (reached via a CommLib).
func (p *PLC) writeBlock(id int, code []byte) {
	cp := make([]byte, len(code))
	copy(cp, code)
	p.blocks[id] = cp
}

// readBlock returns a stored block.
func (p *PLC) readBlock(id int) ([]byte, bool) {
	b, ok := p.blocks[id]
	return b, ok
}

// blockIDs returns sorted stored block IDs.
func (p *PLC) blockIDs() []int {
	out := make([]int, 0, len(p.blocks))
	for id := range p.blocks {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// InstallRoutine binds scan-cycle logic under a name (idempotent replace).
func (p *PLC) InstallRoutine(name string, r Routine) {
	if _, ok := p.routines[name]; !ok {
		p.order = append(p.order, name)
	}
	p.routines[name] = r
}

// RemoveRoutine unbinds a routine.
func (p *PLC) RemoveRoutine(name string) {
	if _, ok := p.routines[name]; !ok {
		return
	}
	delete(p.routines, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

// ScanCycle runs one PLC cycle: routines fire, then drives push their
// commands into the attached machines.
func (p *PLC) ScanCycle() {
	for _, name := range p.order {
		p.routines[name](p)
	}
	for _, d := range p.bus.drives {
		for _, m := range d.machines {
			m.step(d.CommandHz)
		}
	}
}

// SetDriveCommand sets the commanded frequency on drive idx.
func (p *PLC) SetDriveCommand(idx int, hz float64) error {
	if idx < 0 || idx >= len(p.bus.drives) {
		return fmt.Errorf("plc: no drive %d", idx)
	}
	p.bus.drives[idx].CommandHz = hz
	return nil
}

// ErrNoBlock is returned when a requested block does not exist.
var ErrNoBlock = errors.New("plc: no such block")

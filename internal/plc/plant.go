package plc

import (
	"time"

	"repro/internal/sim"
)

// Plant is a complete cascade installation: PLC + bus + drives +
// centrifuges, ticking on the kernel, with an operator HMI and safety
// system watching through a comm library.
type Plant struct {
	K        *sim.Kernel
	PLC      *PLC
	Operator *OperatorView
	Safety   *SafetySystem

	stopTick func()
}

// PlantConfig describes a cascade to build.
type PlantConfig struct {
	Name string
	// CPType defaults to the Profibus CP model Stuxnet requires.
	CPType string
	// DriveVendors gives one entry per drive; defaults to the paper's
	// Finnish/Iranian pair repeated.
	DriveVendors []string
	// MachinesPerDrive defaults to 8.
	MachinesPerDrive int
}

// scanEvery is the plant's scan/physics period: one simulated minute.
const scanEvery = time.Minute

// NewPlant builds a plant running at NormalHz and starts its scan/physics
// loop on the kernel. Callers own Stop.
func NewPlant(k *sim.Kernel, cfg PlantConfig) *Plant {
	if cfg.CPType == "" {
		cfg.CPType = DefaultCPType
	}
	if len(cfg.DriveVendors) == 0 {
		cfg.DriveVendors = []string{VendorFinnish, VendorIranian, VendorFinnish, VendorIranian}
	}
	if cfg.MachinesPerDrive <= 0 {
		cfg.MachinesPerDrive = 8
	}
	bus := &Profibus{CPType: cfg.CPType}
	machineID := 0
	for i, vendor := range cfg.DriveVendors {
		d := &FrequencyConverter{Index: i, Vendor: vendor, CommandHz: NormalHz}
		for m := 0; m < cfg.MachinesPerDrive; m++ {
			machineID++
			d.machines = append(d.machines, &Centrifuge{ID: machineID, RotorHz: NormalHz})
		}
		bus.drives = append(bus.drives, d)
	}
	p := NewPLC(cfg.Name, bus)
	lib := NewDirectLib(p)
	plant := &Plant{
		K:        k,
		PLC:      p,
		Operator: NewOperatorView(lib),
		Safety:   NewSafetySystem(lib),
	}
	plant.stopTick = k.Every(scanEvery, "plant:"+cfg.Name, func() {
		p.ScanCycle()
		plant.Operator.Poll(len(bus.drives))
		plant.Safety.Check(len(bus.drives))
	})
	return plant
}

// RebindMonitors points the HMI and safety system at a (possibly
// trojanized) comm library — they load the same DLL Step 7 does.
func (pl *Plant) RebindMonitors(lib CommLib) {
	pl.Operator = NewOperatorView(lib)
	pl.Safety = NewSafetySystem(lib)
}

// Stop halts the plant tick loop.
func (pl *Plant) Stop() {
	if pl.stopTick != nil {
		pl.stopTick()
		pl.stopTick = nil
	}
}

// Centrifuges returns all machines across all drives.
func (pl *Plant) Centrifuges() []*Centrifuge {
	var out []*Centrifuge
	for _, d := range pl.PLC.Bus().Drives() {
		out = append(out, d.Machines()...)
	}
	return out
}

// DestroyedCount reports how many machines have been destroyed.
func (pl *Plant) DestroyedCount() int {
	n := 0
	for _, c := range pl.Centrifuges() {
		if c.Destroyed {
			n++
		}
	}
	return n
}

package plc

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/sim"
)

func testKernel() *sim.Kernel { return sim.NewKernel(sim.WithSeed(5)) }

func smallPlant(k *sim.Kernel) *Plant {
	return NewPlant(k, PlantConfig{
		Name:             "natanz-a26",
		DriveVendors:     []string{VendorFinnish, VendorIranian},
		MachinesPerDrive: 4,
	})
}

func TestPlantRunsSteadyAtNormalHz(t *testing.T) {
	k := testKernel()
	p := smallPlant(k)
	defer p.Stop()
	k.RunFor(6 * time.Hour)
	if p.DestroyedCount() != 0 {
		t.Fatalf("destroyed = %d under normal operation", p.DestroyedCount())
	}
	for _, c := range p.Centrifuges() {
		if math.Abs(c.RotorHz-NormalHz) > 1 {
			t.Fatalf("rotor %d at %.1f Hz, want ~%d", c.ID, c.RotorHz, NormalHz)
		}
		if c.Stress != 0 {
			t.Fatalf("rotor %d accumulated stress %.1f under normal operation", c.ID, c.Stress)
		}
	}
	if !p.Operator.AllNormal() {
		t.Fatalf("operator view abnormal: %v", p.Operator.Readings)
	}
	if p.Safety.Tripped {
		t.Fatal("safety system tripped under normal operation")
	}
}

func TestNormalBandSweepNeverDestroys(t *testing.T) {
	// Any steady frequency inside the paper's 807-1210 Hz band is safe.
	for _, hz := range []float64{TriggerMinHz, 900, 1000, NormalHz, TriggerMaxHz} {
		k := testKernel()
		p := smallPlant(k)
		for i := range p.PLC.Bus().Drives() {
			p.PLC.SetDriveCommand(i, hz)
		}
		k.RunFor(24 * time.Hour)
		p.Stop()
		if n := p.DestroyedCount(); n != 0 {
			t.Fatalf("steady %.0f Hz destroyed %d machines", hz, n)
		}
	}
}

func TestAttackProfileDestroys(t *testing.T) {
	// The paper's 1410 -> 2 -> 1064 Hz excursion must destroy machines
	// when the safety system is blind (here: monitors removed).
	k := testKernel()
	p := smallPlant(k)
	p.Safety.Tripped = true // pretend already blinded; Check() is a no-op once tripped... use fresh check below
	defer p.Stop()

	// Drive the profile directly through the PLC.
	lib := NewDirectLib(p.PLC)
	for i := 0; i < 2; i++ {
		lib.WriteFrequency(i, AttackHighHz)
	}
	k.RunFor(30 * time.Minute)
	for i := 0; i < 2; i++ {
		lib.WriteFrequency(i, AttackLowHz)
	}
	k.RunFor(10 * time.Minute)
	for i := 0; i < 2; i++ {
		lib.WriteFrequency(i, NormalHz)
	}
	k.RunFor(30 * time.Minute)

	if n := p.DestroyedCount(); n == 0 {
		t.Fatal("attack profile destroyed nothing")
	}
}

func TestSafetySystemTripsOnRealReadings(t *testing.T) {
	// Without the rootkit replay, the protection system sees the
	// overspeed and shuts the cascade down before destruction.
	k := testKernel()
	p := smallPlant(k)
	defer p.Stop()
	lib := NewDirectLib(p.PLC)
	for i := 0; i < 2; i++ {
		lib.WriteFrequency(i, AttackHighHz)
	}
	k.RunFor(2 * time.Hour)
	if !p.Safety.Tripped {
		t.Fatal("safety system never tripped on overspeed")
	}
	if n := p.DestroyedCount(); n != 0 {
		t.Fatalf("safety trip too late: %d destroyed", n)
	}
	// After the trip, drives are commanded to zero.
	for i, d := range p.PLC.Bus().Drives() {
		if d.CommandHz != 0 {
			t.Fatalf("drive %d command = %.0f after trip, want 0", i, d.CommandHz)
		}
	}
}

func TestCentrifugeStepInertia(t *testing.T) {
	c := &Centrifuge{RotorHz: 0}
	c.step(100)
	if c.RotorHz <= 0 || c.RotorHz >= 100 {
		t.Fatalf("rotor = %.1f, want between 0 and 100", c.RotorHz)
	}
	prev := c.RotorHz
	c.step(100)
	if c.RotorHz <= prev {
		t.Fatal("rotor not converging")
	}
}

func TestDestroyedCentrifugeStaysDown(t *testing.T) {
	c := &Centrifuge{RotorHz: NormalHz, Stress: DestructionStress}
	c.step(NormalHz)
	if !c.Destroyed || c.RotorHz != 0 {
		t.Fatalf("centrifuge = %+v", c)
	}
	c.step(NormalHz)
	if c.RotorHz != 0 {
		t.Fatal("destroyed centrifuge spun up again")
	}
}

func TestDirectLibBlockOps(t *testing.T) {
	bus := &Profibus{CPType: DefaultCPType}
	p := NewPLC("test", bus)
	lib := NewDirectLib(p)
	if err := lib.WriteBlock(890, []byte("DB890")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	b, err := lib.ReadBlock(890)
	if err != nil || string(b) != "DB890" {
		t.Fatalf("ReadBlock: %v %q", err, b)
	}
	if _, err := lib.ReadBlock(999); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("err = %v, want ErrNoBlock", err)
	}
	lib.WriteBlock(1, []byte("OB1"))
	ids := lib.ListBlocks()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 890 {
		t.Fatalf("ListBlocks = %v", ids)
	}
}

func TestBusInfoFingerprint(t *testing.T) {
	k := testKernel()
	p := smallPlant(k)
	defer p.Stop()
	lib := NewDirectLib(p.PLC)
	info := lib.BusInfo()
	if info.CPType != DefaultCPType {
		t.Fatalf("CPType = %q", info.CPType)
	}
	if len(info.Vendors) != 2 || info.Vendors[0] != VendorFinnish || info.Vendors[1] != VendorIranian {
		t.Fatalf("Vendors = %v", info.Vendors)
	}
}

func TestRoutineInstallRemoveOrder(t *testing.T) {
	bus := &Profibus{CPType: DefaultCPType}
	p := NewPLC("t", bus)
	var calls []string
	p.InstallRoutine("a", func(*PLC) { calls = append(calls, "a") })
	p.InstallRoutine("b", func(*PLC) { calls = append(calls, "b") })
	p.ScanCycle()
	if len(calls) != 2 || calls[0] != "a" {
		t.Fatalf("calls = %v", calls)
	}
	p.RemoveRoutine("a")
	calls = nil
	p.ScanCycle()
	if len(calls) != 1 || calls[0] != "b" {
		t.Fatalf("after remove: %v", calls)
	}
	p.RemoveRoutine("ghost") // no-op
	// Replacing keeps order.
	p.InstallRoutine("b", func(*PLC) { calls = append(calls, "b2") })
	calls = nil
	p.ScanCycle()
	if len(calls) != 1 || calls[0] != "b2" {
		t.Fatalf("after replace: %v", calls)
	}
}

func TestStep7OpenProjectHooks(t *testing.T) {
	k := testKernel()
	h := host.New(k, "ENG-STATION")
	bus := &Profibus{CPType: DefaultCPType}
	p := NewPLC("plc", bus)
	s7 := NewStep7(h, `C:\Program Files\Siemens\Step7`, p)

	if !h.FS.Exists(s7.DLLPath()) {
		t.Fatal("genuine DLL not on disk")
	}
	if err := NewProject(h, `C:\Projects\cascade`); err != nil {
		t.Fatalf("NewProject: %v", err)
	}
	var hooked []string
	s7.OnProjectOpen(func(dir string) { hooked = append(hooked, dir) })
	if err := s7.OpenProject(`C:\Projects\cascade`); err != nil {
		t.Fatalf("OpenProject: %v", err)
	}
	if len(hooked) != 1 || hooked[0] != `C:\Projects\cascade` {
		t.Fatalf("hooks = %v", hooked)
	}
	if err := s7.OpenProject(`C:\Projects\missing`); !errors.Is(err, ErrNoProject) {
		t.Fatalf("err = %v, want ErrNoProject", err)
	}
	if got := s7.OpenedProjects(); len(got) != 1 {
		t.Fatalf("OpenedProjects = %v", got)
	}
}

func TestStep7DownloadUpload(t *testing.T) {
	k := testKernel()
	h := host.New(k, "ENG")
	bus := &Profibus{CPType: DefaultCPType}
	p := NewPLC("plc", bus)
	s7 := NewStep7(h, `C:\Step7`, p)
	if err := s7.DownloadBlock(35, []byte("FC35 logic")); err != nil {
		t.Fatalf("DownloadBlock: %v", err)
	}
	b, err := s7.UploadBlock(35)
	if err != nil || string(b) != "FC35 logic" {
		t.Fatalf("UploadBlock: %v %q", err, b)
	}
	if ids := s7.ListBlocks(); len(ids) != 1 || ids[0] != 35 {
		t.Fatalf("ListBlocks = %v", ids)
	}
}

func TestOperatorViewAllNormal(t *testing.T) {
	k := testKernel()
	p := smallPlant(k)
	defer p.Stop()
	k.RunFor(10 * time.Minute)
	if len(p.Operator.Readings) != 2 {
		t.Fatalf("readings = %v", p.Operator.Readings)
	}
	if !p.Operator.AllNormal() {
		t.Fatalf("AllNormal false for %v", p.Operator.Readings)
	}
	v := NewOperatorView(NewDirectLib(p.PLC))
	if v.AllNormal() {
		t.Fatal("AllNormal true with no readings")
	}
}

func TestRebindMonitors(t *testing.T) {
	k := testKernel()
	p := smallPlant(k)
	defer p.Stop()
	lib := NewDirectLib(p.PLC)
	p.RebindMonitors(lib)
	k.RunFor(5 * time.Minute)
	if len(p.Operator.Readings) == 0 {
		t.Fatal("rebound operator never polled")
	}
}

func TestProjectInfectedDetection(t *testing.T) {
	k := testKernel()
	h := host.New(k, "ENG")
	NewProject(h, `C:\Projects\clean`)
	if ProjectInfected(h, `C:\Projects\clean`) {
		t.Fatal("clean project reported infected")
	}
	h.FS.Write(`C:\Projects\clean\xutils\listen.xr`, []byte("inj"), host.AttrHidden, k.Now())
	if !ProjectInfected(h, `C:\Projects\clean`) {
		t.Fatal("infected project not detected")
	}
}

package host

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/usb"
)

// Edge cases around execution, removable media, and driver policy.

type blockByName struct{ name string }

func (b blockByName) Name() string { return "NameAV" }
func (b blockByName) ScanImage(h *Host, img *pe.File) string {
	if img.Name == b.name {
		return "Blocked." + b.name
	}
	return ""
}

func TestBrowseRemovableSwallowsAVBlock(t *testing.T) {
	// An AV block on the LNK payload must not abort browsing — the user
	// just sees the drive.
	k := sim.NewKernel()
	h := New(k, "GUARDED", WithOS(Win7))
	h.AddSecurity(blockByName{name: "payload.exe"})
	payload := &pe.File{Name: "payload.exe", Machine: pe.MachineX86, Timestamp: k.Now()}
	raw, _ := payload.Marshal()
	d := usb.NewDrive("STICK")
	d.Put("payload.exe", raw, true)
	d.LNKs = []usb.LNK{{Name: "x.lnk", OSTag: h.OS.Tag(), PayloadFile: "payload.exe", Malicious: true}}
	h.InsertUSB(d)
	if err := h.BrowseRemovable(); err != nil {
		t.Fatalf("BrowseRemovable returned AV error: %v", err)
	}
	if len(k.Trace().Filter(sim.CatDefense)) == 0 {
		t.Fatal("no defense trace for the blocked payload")
	}
}

func TestBrowseRemovableCorruptPayloadIgnored(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, "WS", WithOS(Win7), WithAutorun(true))
	d := usb.NewDrive("STICK")
	d.Put("junk.exe", []byte("not an SPE image"), false)
	d.Autorun = &usb.Autorun{Exec: "junk.exe"}
	d.LNKs = []usb.LNK{{Name: "x.lnk", OSTag: h.OS.Tag(), PayloadFile: "junk.exe", Malicious: true}}
	h.InsertUSB(d)
	if err := h.BrowseRemovable(); err != nil {
		t.Fatalf("corrupt payloads should be skipped: %v", err)
	}
}

func TestScheduledTaskMissingImage(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, "WS")
	h.ScheduleTask("ghost", `C:\missing.exe`, k.Now().Add(time.Minute))
	k.RunFor(2 * time.Minute) // must not panic; failure logged
	found := false
	for _, e := range h.EventLog() {
		if e.Source == "taskscheduler" {
			found = true
		}
	}
	if !found {
		t.Fatal("task failure not logged")
	}
}

func TestExecuteFileParseError(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, "WS")
	h.FS.Write(`C:\bad.exe`, []byte("garbage"), 0, k.Now())
	if _, err := h.ExecuteFile(`C:\bad.exe`, false); err == nil {
		t.Fatal("garbage executed")
	}
	if _, err := h.ExecuteFile(`C:\absent.exe`, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDriverCapsParsing(t *testing.T) {
	k := sim.NewKernel()
	// Build a self-trusted signer for this test.
	store, key, cert := driverPKI(t)
	h := New(k, "WS", WithCertStore(store))
	drv := testImage("multi.sys")
	drv.Sections = append(drv.Sections, pe.Section{Name: CapSectionName, Data: []byte(" rawdisk , , future-cap ")})
	if err := pkiSign(drv, key, cert); err != nil {
		t.Fatalf("sign: %v", err)
	}
	d, err := h.LoadDriver(drv)
	if err != nil {
		t.Fatalf("LoadDriver: %v", err)
	}
	if !d.Caps[CapRawDisk] || !d.Caps["future-cap"] || len(d.Caps) != 2 {
		t.Fatalf("caps = %v", d.Caps)
	}
	if h.Driver("MULTI.SYS") == nil {
		t.Fatal("driver lookup not case-insensitive")
	}
}

func TestWipeCheckCountsOnlyJPEGMarked(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, "WS")
	h.FS.Write(`C:\Users\u\documents\a.docx`, []byte{0xFF, 0xD8, 0x01}, 0, k.Now())
	h.FS.Write(`C:\Users\u\documents\b.docx`, []byte("intact"), 0, k.Now())
	h.FS.Write(`C:\Windows\sys.dll`, []byte{0xFF, 0xD8}, 0, k.Now())
	check := h.CheckWipe()
	if check.FilesWiped != 1 {
		t.Fatalf("FilesWiped = %d, want 1 (only user files count)", check.FilesWiped)
	}
}

func TestSeedDocumentsSizedBound(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, "WS")
	h.SeedDocumentsSized("u", 30, 4096)
	h.FS.Walk(`C:\Users`, func(f *FileNode) bool {
		if f.Size() > 4096 {
			t.Fatalf("doc %s = %d bytes, over bound", f.Path, f.Size())
		}
		return true
	})
}

func TestBrowserProfileRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, "WS")
	err := h.SeedBrowserProfile("ali", []BrowserLogin{
		{Domain: "bank.example", User: "a", Password: "p"},
	})
	if err != nil {
		t.Fatalf("SeedBrowserProfile: %v", err)
	}
	f, err := h.FS.Read(BrowserProfilePath("ali"))
	if err != nil || string(f.Bytes()) != "bank.example|a|p\n" {
		t.Fatalf("profile = %v %q", err, f.Bytes())
	}
}

package host

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/usb"
)

// OSVersion identifies the simulated Windows release on a host. Exploit
// gates and the per-OS LNK payloads consult it.
type OSVersion int

// Modelled Windows releases.
const (
	WinXP OSVersion = iota + 1
	WinVista
	Win7
	WinServer2003
	WinServer2008
)

// Tag returns the short identifier used on crafted LNK files.
func (v OSVersion) Tag() string {
	switch v {
	case WinXP:
		return "winxp"
	case WinVista:
		return "winvista"
	case Win7:
		return "win7"
	case WinServer2003:
		return "winserver2003"
	case WinServer2008:
		return "winserver2008"
	default:
		return "unknown"
	}
}

func (v OSVersion) String() string { return v.Tag() }

// Process is a running (simulated) program.
type Process struct {
	PID    int
	Image  string
	Digest [32]byte
	System bool // runs with SYSTEM privileges
	Alive  bool
}

// Service is an installed Windows service.
type Service struct {
	Name        string
	ImagePath   string
	StartOnBoot bool
	Running     bool
}

// Task is a scheduled task.
type Task struct {
	Name      string
	At        time.Time
	ImagePath string
	fired     bool
}

// DriverCap is a capability a loaded kernel driver grants to user mode.
type DriverCap string

// CapRawDisk lets user-mode code write raw disk sectors — the capability
// Shamoon obtained by loading the legitimately signed Eldos driver.
const CapRawDisk DriverCap = "rawdisk"

// CapSectionName is the SPE section in which a driver image declares its
// capabilities, comma-separated.
const CapSectionName = ".caps"

// Driver is a loaded kernel driver.
type Driver struct {
	Name   string
	Signer string
	Caps   map[DriverCap]bool
}

// SecurityProduct scans images before execution; a detection blocks the
// run. Concrete products (signature AV over the YARA engine) live in the
// analysis package.
type SecurityProduct interface {
	Name() string
	// ScanImage returns a non-empty detection name if the image is
	// recognized as malicious. It must not write img (see
	// ExecDispatcher).
	ScanImage(h *Host, img *pe.File) (detection string)
}

// ExecDispatcher receives every successful execution on a host. The
// malware framework installs one that maps image digests to behaviour
// implants. A nil dispatcher means images run inertly. It must not write
// img: an image run from a shared file is the one parse of that file's
// buffer that every host of the world is handed (ExecuteFile).
type ExecDispatcher func(h *Host, proc *Process, img *pe.File)

// LogEntry is one event-log record.
type LogEntry struct {
	At      time.Time
	Source  string
	Message string
}

// Hardware describes peripherals relevant to Flame's collection modules.
type Hardware struct {
	Microphone bool
	Bluetooth  bool
}

// Host is one simulated Windows machine.
type Host struct {
	Name     string
	Domain   string
	OS       OSVersion
	Arch     pe.Machine
	Hardware Hardware

	K         *sim.Kernel
	RNG       *sim.RNG
	Disk      *Disk
	FS        *FS
	Registry  *Registry
	CertStore *pki.Store

	// Internet reports whether this host can reach the simulated
	// internet. Air-gapped zones set it false.
	Internet bool
	// AutorunEnabled mirrors the pre-MS08-038 default of honouring
	// autorun.inf on removable media.
	AutorunEnabled bool
	// SharesOpen models "file and print sharing turned on" — the
	// precondition for the MS10-061 spooler vector and SMB copy spread.
	SharesOpen bool
	// ProxyHost, when set, routes the host's HTTP traffic through the
	// named machine (the state Flame's fake WPAD answer induces).
	ProxyHost string

	patches  map[string]bool
	services map[string]*Service
	tasks    []*Task
	procs    map[int]*Process
	nextPID  int
	drivers  map[string]*Driver
	security []SecurityProduct
	eventLog []LogEntry

	// Dispatcher receives successful executions (see ExecDispatcher).
	Dispatcher ExecDispatcher

	currentUSB *usb.Drive
	// OnUSBInsert hooks run after a drive is inserted (malware that
	// infects sticks, or ferries data onto them).
	OnUSBInsert []func(*Host, *usb.Drive)

	// Wiped is set when destructive malware has destroyed user data.
	Wiped bool

	// EagerDocs makes SeedDocumentsSized materialise document bytes at
	// seeding time instead of lazily on first read. The two modes are
	// byte-equivalent (DESIGN.md §9); eager mode exists for the
	// equivalence tests and for memory-insensitive scenarios.
	EagerDocs bool

	// Down marks the machine crashed or powered off: nothing executes and
	// no LAN operation reaches it until Reboot.
	Down bool
	// OnReboot hooks run after a reboot's boot-start services relaunch.
	// Malware registers persistence checks here: an agent whose on-disk
	// artefacts were removed discovers at boot that it did not survive.
	OnReboot []func(*Host)
	// BootCount counts completed reboots.
	BootCount int

	// mExec is cached: Execute runs once per process on a 30,000-host
	// fleet, so it must not pay a registry lookup per call.
	mExec *obs.Counter
}

// Option configures a new Host.
type Option func(*Host)

// WithOS sets the Windows release (default Win7).
func WithOS(v OSVersion) Option { return func(h *Host) { h.OS = v } }

// WithArch sets the CPU architecture (default x86).
func WithArch(m pe.Machine) Option { return func(h *Host) { h.Arch = m } }

// WithDomain sets the Windows domain name.
func WithDomain(d string) Option { return func(h *Host) { h.Domain = d } }

// WithCertStore installs the trust store (default: empty store).
func WithCertStore(s *pki.Store) Option { return func(h *Host) { h.CertStore = s } }

// WithInternet marks the host internet-connected.
func WithInternet(v bool) Option { return func(h *Host) { h.Internet = v } }

// WithAutorun enables autorun.inf processing.
func WithAutorun(v bool) Option { return func(h *Host) { h.AutorunEnabled = v } }

// WithShares opens file & print sharing.
func WithShares(v bool) Option { return func(h *Host) { h.SharesOpen = v } }

// WithPatches pre-applies the listed security bulletins.
func WithPatches(ids ...string) Option {
	return func(h *Host) {
		for _, id := range ids {
			h.patches[strings.ToUpper(id)] = true
		}
	}
}

// WithHardware sets peripheral availability.
func WithHardware(hw Hardware) Option { return func(h *Host) { h.Hardware = hw } }

// WithRNG installs a pre-derived RNG stream instead of forking one from
// the kernel. Fleet builders (core.World.AddHosts) use it to hand host i
// the stream ForkAt(i) derives, so a host's randomness does not depend
// on the hosts built before it.
func WithRNG(r *sim.RNG) Option { return func(h *Host) { h.RNG = r } }

// WithEagerDocs makes the host seed documents eagerly (see Host.EagerDocs).
func WithEagerDocs(v bool) Option { return func(h *Host) { h.EagerDocs = v } }

// New creates a host attached to the kernel.
func New(k *sim.Kernel, name string, opts ...Option) *Host {
	h := &Host{
		Name:     name,
		OS:       Win7,
		Arch:     pe.MachineX86,
		K:        k,
		Disk:     NewDisk(1 << 21), // 1 GiB of 512-byte sectors
		FS:       NewFS(),
		Registry: NewRegistry(),
		patches:  make(map[string]bool),
		services: make(map[string]*Service),
		procs:    make(map[int]*Process),
		drivers:  make(map[string]*Driver),
		nextPID:  1000,
		mExec:    k.Metrics().Counter("host.process.exec"),
	}
	for _, opt := range opts {
		opt(h)
	}
	// Fork only when no option supplied a stream: a WithRNG host must not
	// draw from the kernel RNG, or it would shift every later fork.
	if h.RNG == nil {
		h.RNG = k.RNG().Fork()
	}
	// Likewise a WithCertStore host never builds the empty default store.
	if h.CertStore == nil {
		h.CertStore = pki.NewStore()
	}
	return h
}

// Logf appends to the host event log and the kernel trace.
func (h *Host) Logf(cat sim.Category, source, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	h.eventLog = append(h.eventLog, LogEntry{At: h.K.Now(), Source: source, Message: msg})
	h.K.Trace().Add(h.K.Now(), cat, h.Name, "%s: %s", source, msg)
}

// EventLog returns a copy of the host's event log.
func (h *Host) EventLog() []LogEntry {
	out := make([]LogEntry, len(h.eventLog))
	copy(out, h.eventLog)
	return out
}

// Patched reports whether the bulletin is installed.
func (h *Host) Patched(bulletin string) bool {
	return h.patches[strings.ToUpper(bulletin)]
}

// ApplyPatch installs a bulletin.
func (h *Host) ApplyPatch(bulletin string) {
	h.patches[strings.ToUpper(bulletin)] = true
}

// AddSecurity installs a security product.
func (h *Host) AddSecurity(p SecurityProduct) {
	h.security = append(h.security, p)
}

// ErrBlocked is returned when a security product stops an execution.
var ErrBlocked = errors.New("host: execution blocked by security product")

// ErrHostDown is returned when an operation targets a crashed machine.
var ErrHostDown = errors.New("host: machine is down")

// Crash powers the host off mid-flight: every process dies and in-memory
// state (the proxy configuration a WPAD hijack installed) is lost. Disk,
// registry, installed services and patch state persist — the reboot
// decides what comes back.
func (h *Host) Crash() {
	if h.Down {
		return
	}
	h.Down = true
	for _, p := range h.procs {
		p.Alive = false
	}
	h.ProxyHost = ""
	h.K.Metrics().Counter("host.crash").Inc()
	h.K.Trace().Emit(h.K.Now(), sim.CatFault, h.Name, "crashed: all processes killed",
		obs.T("host", h.Name))
}

// Reboot brings a downed host back: boot-start services relaunch from
// their on-disk images (in sorted name order, so reboots are
// deterministic), then OnReboot hooks run. Only artefacts persisted via
// registry, service, or driver survive a crash/reboot cycle — memory-only
// implants are gone.
func (h *Host) Reboot() {
	if !h.Down {
		return
	}
	h.Down = false
	h.BootCount++
	h.K.Metrics().Counter("host.reboot").Inc()
	h.K.Trace().Emit(h.K.Now(), sim.CatFault, h.Name, "rebooted",
		obs.T("host", h.Name), obs.Ti("boot", int64(h.BootCount)))
	names := make([]string, 0, len(h.services))
	for name := range h.services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := h.services[name]
		if !s.StartOnBoot {
			continue
		}
		s.Running = false
		if err := h.StartService(s.Name); err != nil {
			h.Logf(sim.CatExec, "scm", "boot-start service %s failed: %v", s.Name, err)
		}
	}
	for _, hook := range h.OnReboot {
		hook(h)
	}
}

// Execute scans img with the installed security products and, if clean,
// spawns a process and hands it to the dispatcher.
func (h *Host) Execute(img *pe.File, system bool) (*Process, error) {
	return h.execute(img, nil, system)
}

// execute is Execute for img with its digest known: the one the trust
// store's memo recorded for a shared FS node's image, once per world
// (DESIGN.md §9 item 6). With digest nil, img is hashed.
func (h *Host) execute(img *pe.File, digest *[32]byte, system bool) (*Process, error) {
	if h.Down {
		return nil, fmt.Errorf("%w: %s", ErrHostDown, h.Name)
	}
	if img.Machine == pe.MachineX64 && h.Arch != pe.MachineX64 {
		return nil, fmt.Errorf("host: cannot execute %s image %q on %s host %s", img.Machine, img.Name, h.Arch, h.Name)
	}
	for _, prod := range h.security {
		if det := prod.ScanImage(h, img); det != "" {
			h.K.Metrics().Counter("host.security.block").Inc()
			h.Logf(sim.CatDefense, prod.Name(), "blocked %s (%s)", img.Name, det)
			return nil, fmt.Errorf("%w: %s detected %s as %s", ErrBlocked, prod.Name(), img.Name, det)
		}
	}
	if digest == nil {
		d, err := img.Digest()
		if err != nil {
			return nil, fmt.Errorf("execute %q: %w", img.Name, err)
		}
		digest = &d
	}
	h.nextPID++
	proc := &Process{PID: h.nextPID, Image: img.Name, Digest: *digest, System: system, Alive: true}
	h.procs[proc.PID] = proc
	h.mExec.Inc()
	if tr := h.K.Trace(); tr.Live() {
		tr.Emit(h.K.Now(), sim.CatExec, h.Name, fmt.Sprintf("exec %s (pid %d)", img.Name, proc.PID),
			obs.T("image", img.Name), obs.Ti("pid", int64(proc.PID)))
	}
	if h.Dispatcher != nil {
		h.Dispatcher(h, proc, img)
	}
	return proc, nil
}

// ExecuteFile parses the SPE image stored at path and executes it. Only
// a node still in the shared state takes its parse and its digest from
// the memo, so every host that runs one shared buffer is handed the
// world's one parse of it: owned and lazy nodes, and shared ones that
// copy-on-write promoted, are parsed and hashed on every call.
func (h *Host) ExecuteFile(path string, system bool) (*Process, error) {
	f, err := h.FS.Read(path)
	if err != nil {
		return nil, err
	}
	var img *pe.File
	var digest *[32]byte
	if f.shared {
		var d [32]byte
		img, d, err = h.CertStore.SharedImage(f.Bytes())
		digest = &d
	} else {
		img, err = pe.Parse(f.Bytes())
	}
	if err != nil {
		return nil, fmt.Errorf("execute %s: %w", path, err)
	}
	return h.execute(img, digest, system)
}

// Kill marks a process dead.
func (h *Host) Kill(pid int) {
	if p, ok := h.procs[pid]; ok {
		p.Alive = false
	}
}

// Processes returns the live processes.
func (h *Host) Processes() []*Process {
	var out []*Process
	for _, p := range h.procs {
		if p.Alive {
			out = append(out, p)
		}
	}
	return out
}

// DropFile is a convenience for malware droppers: marshal img into the
// filesystem at path.
func (h *Host) DropFile(path string, img *pe.File, attr FileAttr) error {
	raw, err := img.Marshal()
	if err != nil {
		return fmt.Errorf("drop %s: %w", path, err)
	}
	return h.FS.Write(path, raw, attr, h.K.Now())
}

// InstallService registers a service whose image lives at imagePath. The
// registration is traced (the Event-7045 analog) so detection rules can
// watch service creation — the artefact PsExec leaves on every target.
func (h *Host) InstallService(name, imagePath string, startOnBoot bool) *Service {
	s := &Service{Name: name, ImagePath: imagePath, StartOnBoot: startOnBoot}
	h.services[strings.ToLower(name)] = s
	h.Registry.Set(`HKLM\SYSTEM\CurrentControlSet\Services\`+name+`\ImagePath`, imagePath)
	if tr := h.K.Trace(); tr.Live() {
		tr.Emit(h.K.Now(), sim.CatExec, h.Name, "service installed: "+name,
			obs.T("service", name), obs.T("image", imagePath))
	}
	return s
}

// Service returns the named service, or nil.
func (h *Host) Service(name string) *Service {
	return h.services[strings.ToLower(name)]
}

// StartService executes the service image with SYSTEM privileges.
func (h *Host) StartService(name string) error {
	s := h.Service(name)
	if s == nil {
		return fmt.Errorf("host: no service %q", name)
	}
	if _, err := h.ExecuteFile(s.ImagePath, true); err != nil {
		return fmt.Errorf("start service %s: %w", name, err)
	}
	s.Running = true
	return nil
}

// ScheduleTask registers a task that executes imagePath at the given
// time. The registration is traced (the Event-4698 analog) so detection
// rules can watch task creation — the persistence artefact the CNI
// intrusions dropped with randomized names.
func (h *Host) ScheduleTask(name, imagePath string, at time.Time) *Task {
	t := &Task{Name: name, At: at, ImagePath: imagePath}
	h.tasks = append(h.tasks, t)
	if tr := h.K.Trace(); tr.Live() {
		tr.Emit(h.K.Now(), sim.CatExec, h.Name, "task registered: "+name,
			obs.T("task", name), obs.T("image", imagePath))
	}
	h.K.ScheduleAt(at, "task:"+name+"@"+h.Name, func() {
		if t.fired {
			return
		}
		t.fired = true
		if _, err := h.ExecuteFile(t.ImagePath, true); err != nil {
			h.Logf(sim.CatExec, "taskscheduler", "task %s failed: %v", name, err)
		}
	})
	return t
}

// Tasks returns the registered scheduled tasks.
func (h *Host) Tasks() []*Task { return h.tasks }

// ErrUnsignedDriver is returned when driver signature policy rejects a
// load.
var ErrUnsignedDriver = errors.New("host: driver signature verification failed")

// LoadDriver verifies img's signature for driver signing against the
// host's trust store and, on success, loads it, granting any capabilities
// declared in the image's .caps section.
func (h *Host) LoadDriver(img *pe.File) (*Driver, error) {
	sig, err := pki.VerifyImage(img, h.CertStore, h.K.Now(), pki.UsageDriverSign)
	if err != nil {
		h.Logf(sim.CatCert, "ci", "rejected driver %s: %v", img.Name, err)
		return nil, fmt.Errorf("%w: %s: %v", ErrUnsignedDriver, img.Name, err)
	}
	d := &Driver{Name: img.Name, Signer: sig.Chain[0].Subject, Caps: make(map[DriverCap]bool)}
	if sec := img.Section(CapSectionName); sec != nil {
		for _, c := range strings.Split(string(sec.Data), ",") {
			if c = strings.TrimSpace(c); c != "" {
				d.Caps[DriverCap(c)] = true
			}
		}
	}
	h.drivers[strings.ToLower(img.Name)] = d
	h.K.Metrics().Counter("host.driver.load").Inc()
	h.Logf(sim.CatCert, "ci", "loaded driver %s signed by %q", img.Name, d.Signer)
	return d, nil
}

// Driver returns the loaded driver by image name, or nil.
func (h *Host) Driver(name string) *Driver {
	return h.drivers[strings.ToLower(name)]
}

// HasCap reports whether any loaded driver grants the capability.
func (h *Host) HasCap(cap DriverCap) bool {
	for _, d := range h.drivers {
		if d.Caps[cap] {
			return true
		}
	}
	return false
}

// ErrNoRawAccess is returned when user-mode code attempts raw sector I/O
// without a capability-granting driver — the restriction Shamoon worked
// around with the Eldos driver (paper, IV-B).
var ErrNoRawAccess = errors.New("host: user-mode raw disk access denied")

// WriteRawSector writes a raw disk sector on behalf of user-mode code. It
// requires a loaded driver granting CapRawDisk.
func (h *Host) WriteRawSector(n int64, data []byte) error {
	if !h.HasCap(CapRawDisk) {
		return ErrNoRawAccess
	}
	return h.Disk.WriteSector(n, data)
}

// Bootable reports whether the host's disk still boots.
func (h *Host) Bootable() bool { return h.Disk.Bootable() }

// InsertUSB mounts a drive and fires insertion hooks.
func (h *Host) InsertUSB(d *usb.Drive) {
	h.currentUSB = d
	d.Insertions++
	h.K.Metrics().Counter("host.usb.insert").Inc()
	if tr := h.K.Trace(); tr.Live() {
		tr.Emit(h.K.Now(), sim.CatUSB, h.Name, "usb inserted: "+d.Label, obs.T("drive", d.Label))
	}
	if h.Internet && d.HiddenDB != nil {
		d.HiddenDB.InternetSeen = true
	}
	for _, hook := range h.OnUSBInsert {
		hook(h, d)
	}
}

// RemoveUSB unmounts the current drive, returning it.
func (h *Host) RemoveUSB() *usb.Drive {
	d := h.currentUSB
	h.currentUSB = nil
	return d
}

// CurrentUSB returns the mounted drive, or nil.
func (h *Host) CurrentUSB() *usb.Drive { return h.currentUSB }

// MS10_046 is the LNK icon-rendering bulletin gate.
const MS10_046 = "MS10-046"

// BrowseRemovable models a user opening the mounted drive in Explorer.
// Rendering a crafted LNK on a host missing MS10-046 executes the payload
// (CVE-2010-2568); an autorun.inf fires if autorun is enabled.
func (h *Host) BrowseRemovable() error {
	d := h.currentUSB
	if d == nil {
		return errors.New("host: no removable drive mounted")
	}
	if h.AutorunEnabled && d.Autorun != nil {
		if f := d.Get(d.Autorun.Exec); f != nil {
			if img, err := pe.Parse(f.Data); err == nil {
				var execErr error
				h.K.WithCause(sim.Cause{Span: d.OriginSpan, Vector: "usb-autorun"}, func() {
					h.K.Trace().Add(h.K.Now(), sim.CatExploit, h.Name, "autorun.inf executed %s", img.Name)
					_, execErr = h.Execute(img, false)
				})
				if execErr != nil && !errors.Is(execErr, ErrBlocked) {
					return execErr
				}
			}
		}
	}
	for _, lnk := range d.LNKs {
		if !lnk.Malicious || lnk.OSTag != h.OS.Tag() {
			continue
		}
		if h.Patched(MS10_046) {
			h.Logf(sim.CatDefense, "shell", "LNK icon for %s rendered safely (%s installed)", lnk.PayloadFile, MS10_046)
			continue
		}
		f := d.Get(lnk.PayloadFile)
		if f == nil {
			continue
		}
		img, err := pe.Parse(f.Data)
		if err != nil {
			continue
		}
		h.K.Metrics().Counter("host.lnk.exploit").Inc()
		var execErr error
		h.K.WithCause(sim.Cause{Span: d.OriginSpan, Vector: "usb-lnk"}, func() {
			h.K.Trace().Emit(h.K.Now(), sim.CatExploit, h.Name,
				fmt.Sprintf("%s: crafted LNK %s executed %s", MS10_046, lnk.Name, img.Name),
				obs.T("bulletin", MS10_046), obs.T("payload", img.Name))
			_, execErr = h.Execute(img, false)
		})
		if execErr != nil && !errors.Is(execErr, ErrBlocked) {
			return execErr
		}
	}
	return nil
}

// Profile is the basic system inventory Flame's FLASK module collects.
type Profile struct {
	ComputerName string
	Domain       string
	OSVersion    string
	Arch         string
	FileCount    int
	TotalBytes   int64
}

// Profile returns the host's inventory.
func (h *Host) ProfileInfo() Profile {
	return Profile{
		ComputerName: h.Name,
		Domain:       h.Domain,
		OSVersion:    h.OS.String(),
		Arch:         h.Arch.String(),
		FileCount:    h.FS.FileCount(),
		TotalBytes:   h.FS.TotalBytes(),
	}
}

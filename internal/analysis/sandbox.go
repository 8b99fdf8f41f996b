package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/host"
	"repro/internal/malware"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/sim"
)

// Sandbox is an instrumented detonation environment: an isolated kernel, a
// victim host seeded with decoy documents, a LAN, and a sinkholed internet
// that accepts any domain — so samples reveal their C&C endpoints without
// reaching anything real.
type Sandbox struct {
	K        *sim.Kernel
	Internet *netsim.Internet
	LAN      *netsim.LAN
	Victim   *host.Host
	Registry *malware.Registry

	// SinkholedRequests records every HTTP request the sample made.
	SinkholedRequests []*netsim.Request

	// cats counts the trace records of each category since the kernel
	// was built, evicted ones included.
	cats map[sim.Category]int
}

// SinkholeIP is where every unknown domain resolves inside the sandbox.
const SinkholeIP netsim.IP = "203.0.113.254"

// SandboxOption customizes the environment before detonation.
type SandboxOption func(*Sandbox)

// WithDecoyDocs seeds the victim with n decoy user documents.
func WithDecoyDocs(n int) SandboxOption {
	return func(sb *Sandbox) { sb.Victim.SeedDocuments("decoy", n) }
}

// NewSandbox builds a fresh environment. The caller binds family
// behaviours into sb.Registry (via each family's BindTo) before Run.
func NewSandbox(seed uint64, opts ...SandboxOption) *Sandbox {
	k := sim.NewKernel(sim.WithSeed(seed), sim.WithTraceCapacity(1<<14))
	sb := &Sandbox{K: k, cats: map[sim.Category]int{}}
	k.Trace().Subscribe(func(e obs.Event) { sb.cats[sim.Category(e.Cat)]++ })
	in := netsim.NewInternet(k)
	lan := netsim.NewLAN(k, "sandboxnet", "10.250.0", in)
	sb.Internet, sb.LAN = in, lan

	in.SetCatchAll(SinkholeIP)
	in.BindServer(SinkholeIP, netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		sb.SinkholedRequests = append(sb.SinkholedRequests, req)
		return netsim.OK([]byte("sinkhole"))
	}))

	sb.Victim = host.New(k, "SANDBOX-PC", host.WithInternet(true), host.WithShares(true),
		host.WithAutorun(true), host.WithHardware(host.Hardware{Microphone: true, Bluetooth: true}))
	lan.Attach(sb.Victim)
	sb.Registry = malware.NewRegistry(func(h *host.Host) *malware.Env {
		return &malware.Env{K: k, Host: h, LAN: lan, Internet: in}
	})
	sb.Registry.Attach(sb.Victim)

	for _, opt := range opts {
		opt(sb)
	}
	return sb
}

// BehaviorReport is what the sandbox observed.
type BehaviorReport struct {
	Sample   string
	Executed bool
	ExecErr  string
	Duration time.Duration

	FilesCreated    []string
	FilesDeleted    []string
	ServicesCreated []string
	TasksCreated    []string
	DriversLoaded   []string
	RegistryKeysSet int

	DomainsContacted []string
	ExploitEvents    int
	C2Exchanges      int
	ExfilEvents      int
	WipeActions      int
	USBActivity      int
	SuicideEvents    int

	HostWiped    bool
	HostBootable bool
}

// Run detonates the sample on the victim and observes for the given
// virtual duration.
func (sb *Sandbox) Run(img *pe.File, observeFor time.Duration) *BehaviorReport {
	rep := &BehaviorReport{Sample: img.Name, Duration: observeFor}

	beforeFiles := snapshotFiles(sb.Victim)
	beforeKeys := sb.Victim.Registry.Len()
	beforeServices := serviceNames(sb.Victim)

	_, err := sb.Victim.Execute(img, true)
	if err != nil {
		rep.ExecErr = err.Error()
	} else {
		rep.Executed = true
	}
	sb.K.RunFor(observeFor)

	afterFiles := snapshotFiles(sb.Victim)
	for path := range afterFiles {
		if !beforeFiles[path] {
			rep.FilesCreated = append(rep.FilesCreated, path)
		}
	}
	for path := range beforeFiles {
		if !afterFiles[path] {
			rep.FilesDeleted = append(rep.FilesDeleted, path)
		}
	}
	sort.Strings(rep.FilesCreated)
	sort.Strings(rep.FilesDeleted)

	for name := range serviceNames(sb.Victim) {
		if !beforeServices[name] {
			rep.ServicesCreated = append(rep.ServicesCreated, name)
		}
	}
	sort.Strings(rep.ServicesCreated)
	for _, task := range sb.Victim.Tasks() {
		rep.TasksCreated = append(rep.TasksCreated, fmt.Sprintf("%s @ %s", task.Name, task.At.Format(time.RFC3339)))
	}
	rep.RegistryKeysSet = sb.Victim.Registry.Len() - beforeKeys

	domains := map[string]bool{}
	for _, req := range sb.SinkholedRequests {
		domains[req.Host] = true
	}
	for d := range domains {
		rep.DomainsContacted = append(rep.DomainsContacted, d)
	}
	sort.Strings(rep.DomainsContacted)

	rep.ExploitEvents = sb.cats[sim.CatExploit]
	rep.C2Exchanges = sb.cats[sim.CatC2]
	rep.ExfilEvents = sb.cats[sim.CatExfil]
	rep.WipeActions = sb.cats[sim.CatWipe]
	rep.USBActivity = sb.cats[sim.CatUSB]
	rep.SuicideEvents = sb.cats[sim.CatSuicide]
	for _, e := range sb.K.Trace().Filter(sim.CatCert) {
		if strings.Contains(e.Msg, "loaded driver") {
			rep.DriversLoaded = append(rep.DriversLoaded, e.Msg)
		}
	}
	rep.HostWiped = sb.Victim.Wiped
	rep.HostBootable = sb.Victim.Bootable()
	return rep
}

func snapshotFiles(h *host.Host) map[string]bool {
	out := make(map[string]bool, h.FS.FileCount())
	h.FS.Walk("", func(f *host.FileNode) bool {
		out[strings.ToLower(f.Path)] = true
		return true
	})
	return out
}

func serviceNames(h *host.Host) map[string]bool {
	out := map[string]bool{}
	for _, key := range h.Registry.Keys(`HKLM\SYSTEM\CurrentControlSet\Services\`) {
		out[key] = true
	}
	return out
}

// Render produces a human-readable behaviour summary.
func (r *BehaviorReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== detonation of %s (observed %s virtual)\n", r.Sample, r.Duration)
	if !r.Executed {
		fmt.Fprintf(&b, "  execution blocked: %s\n", r.ExecErr)
		return b.String()
	}
	fmt.Fprintf(&b, "  files: +%d -%d, services: %d, tasks: %d, registry: +%d\n",
		len(r.FilesCreated), len(r.FilesDeleted), len(r.ServicesCreated), len(r.TasksCreated), r.RegistryKeysSet)
	fmt.Fprintf(&b, "  network: domains %v, c2 %d, exfil %d\n", r.DomainsContacted, r.C2Exchanges, r.ExfilEvents)
	fmt.Fprintf(&b, "  exploits %d, usb %d, wipes %d, suicides %d\n", r.ExploitEvents, r.USBActivity, r.WipeActions, r.SuicideEvents)
	for _, d := range r.DriversLoaded {
		fmt.Fprintf(&b, "  driver: %s\n", d)
	}
	fmt.Fprintf(&b, "  host wiped=%v bootable=%v\n", r.HostWiped, r.HostBootable)
	return b.String()
}

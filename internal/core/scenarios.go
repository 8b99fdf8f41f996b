package core

import (
	"fmt"
	"time"

	"repro/internal/cnc"
	"repro/internal/detect"
	"repro/internal/host"
	"repro/internal/malware"
	"repro/internal/malware/cni"
	"repro/internal/malware/flame"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/netsim"
	"repro/internal/pki"
	"repro/internal/plc"
	"repro/internal/usb"
	"repro/internal/users"
)

// NatanzScenario is the Fig. 1 world: an enrichment plant with its
// engineering workstation, a handful of office machines, and a built
// Stuxnet campaign with a crafted delivery drive.
type NatanzScenario struct {
	World    *World
	LAN      *netsim.LAN
	Engineer *host.Host
	Offices  []*host.Host
	Plant    *plc.Plant
	Step7    *plc.Step7
	Stuxnet  *stuxnet.Stuxnet
	Delivery *usb.Drive
	Project  string
}

// NatanzOptions tweak the scenario.
type NatanzOptions struct {
	OfficeHosts      int      // default 3
	MachinesPerDrive int      // default 8
	DriveVendors     []string // default Finnish/Iranian pair
	CPType           string   // default Profibus CP
	PatchedBulletins []string // applied to every host
	C2Online         bool     // register the futbol domains
}

// BuildNatanz assembles the scenario on an existing world.
func BuildNatanz(w *World, opts NatanzOptions) (*NatanzScenario, error) {
	if opts.OfficeHosts <= 0 {
		opts.OfficeHosts = 3
	}
	sc := &NatanzScenario{World: w, Project: `C:\Projects\cascade-a26`}
	// The plant network is air-gapped; office LAN has internet.
	sc.LAN = w.NewLAN("natanz-plant", "10.10.0", true)

	sx, err := stuxnet.Build(w.K, stuxnet.Config{
		DriverKey:   w.PKI.StolenKey,
		DriverCerts: []*pki.Certificate{w.PKI.RealtekCert, w.PKI.JMicronCert},
		SpreadEvery: 12 * time.Hour,
	})
	if err != nil {
		return nil, fmt.Errorf("build stuxnet: %w", err)
	}
	sc.Stuxnet = sx
	sx.BindTo(w.Registry)

	hostOpts := func(extra ...host.Option) []host.Option {
		out := []host.Option{host.WithOS(host.Win7), host.WithShares(true)}
		if len(opts.PatchedBulletins) > 0 {
			out = append(out, host.WithPatches(opts.PatchedBulletins...))
		}
		return append(out, extra...)
	}

	sc.Engineer = w.AddHost(sc.LAN, "ENG-STATION", hostOpts()...)
	for i := 0; i < opts.OfficeHosts; i++ {
		sc.Offices = append(sc.Offices, w.AddHost(sc.LAN, fmt.Sprintf("OFFICE-%d", i+1), hostOpts()...))
	}

	plantCfg := plc.PlantConfig{
		Name:             "natanz-a26",
		MachinesPerDrive: opts.MachinesPerDrive,
		DriveVendors:     opts.DriveVendors,
		CPType:           opts.CPType,
	}
	sc.Plant = plc.NewPlant(w.K, plantCfg)
	sc.Step7 = plc.NewStep7(sc.Engineer, `C:\Program Files\Siemens\Step7`, sc.Plant.PLC)
	if err := plc.NewProject(sc.Engineer, sc.Project); err != nil {
		return nil, err
	}
	w.SetExtra(sc.Engineer.Name, malware.ExtraStep7, sc.Step7)
	w.SetExtra(sc.Engineer.Name, malware.ExtraPlant, sc.Plant)

	if opts.C2Online {
		for i, domain := range stuxnet.DefaultC2Domains {
			ip := netsim.IP(fmt.Sprintf("203.0.113.%d", 30+i))
			w.Internet.RegisterDomain(domain, ip)
			w.Internet.BindServer(ip, netsim.HandlerFunc(func(*netsim.Request) *netsim.Response {
				return netsim.OK([]byte("ok"))
			}))
		}
	}

	// The delivery drive an integrator engineer is handed (paper, V-E).
	sc.Delivery = usb.NewDrive("INTEGRATOR-STICK")
	raw, err := sx.MainImage.Marshal()
	if err != nil {
		return nil, err
	}
	sc.Delivery.Put(sx.MainImage.Name, raw, true)
	for _, osv := range []host.OSVersion{host.WinXP, host.WinVista, host.Win7, host.WinServer2003} {
		sc.Delivery.LNKs = append(sc.Delivery.LNKs, usb.LNK{
			Name: "Copy of Shortcut to.lnk", OSTag: osv.Tag(),
			PayloadFile: sx.MainImage.Name, Malicious: true,
		})
	}
	return sc, nil
}

// Deliver plugs the delivery drive into the engineer workstation and
// models the user browsing it, then opening the cascade project.
func (sc *NatanzScenario) Deliver() error {
	sc.Engineer.InsertUSB(sc.Delivery)
	if err := sc.Engineer.BrowseRemovable(); err != nil {
		return err
	}
	return sc.Step7.OpenProject(sc.Project)
}

// EspionageScenario is the Fig. 2/4/5 world: an enterprise LAN under a
// Flame campaign with full C&C platform and the forged update chain.
type EspionageScenario struct {
	World    *World
	LAN      *netsim.LAN
	Hosts    []*host.Host
	Center   *cnc.AttackCenter
	Flame    *flame.Flame
	Patient0 *host.Host
}

// EspionageOptions tweak the scenario.
type EspionageOptions struct {
	Hosts        int // default 8
	DocsPerHost  int // default 50
	Domains      int // default 80
	ServerIPs    int // default 22
	BeaconEvery  time.Duration
	CollectEvery time.Duration
	// Microphones/Bluetooth equip every host.
	Microphones bool
	Bluetooth   bool
}

// BuildEspionage assembles the scenario on an existing world. Patient zero
// is infected immediately.
func BuildEspionage(w *World, opts EspionageOptions) (*EspionageScenario, error) {
	if opts.Hosts <= 0 {
		opts.Hosts = 8
	}
	if opts.DocsPerHost <= 0 {
		opts.DocsPerHost = 50
	}
	if opts.Domains <= 0 {
		opts.Domains = cnc.DefaultDomainCount
	}
	if opts.ServerIPs <= 0 {
		opts.ServerIPs = cnc.DefaultServerIPCount
	}
	sc := &EspionageScenario{World: w}
	sc.LAN = w.NewLAN("ministry", "10.20.0", false)

	center, err := cnc.NewAttackCenter(w.K, w.Internet, opts.Domains, opts.ServerIPs)
	if err != nil {
		return nil, err
	}
	sc.Center = center
	center.Admin().ProvisionAll(30 * time.Minute)

	if err := w.ForgeUpdateCert(); err != nil {
		return nil, err
	}
	fl, err := flame.Build(w.K, flame.Config{
		Center:        center,
		UpdateSignKey: w.PKI.AttackerKey,
		UpdateChain:   w.PKI.ForgedChain(),
		BeaconEvery:   opts.BeaconEvery,
		CollectEvery:  opts.CollectEvery,
	})
	if err != nil {
		return nil, err
	}
	sc.Flame = fl
	fl.BindTo(w.Registry)

	hw := host.Hardware{Microphone: opts.Microphones, Bluetooth: opts.Bluetooth}
	for i := 0; i < opts.Hosts; i++ {
		h := w.AddHost(sc.LAN, fmt.Sprintf("MIN-%03d", i+1),
			host.WithInternet(true), host.WithHardware(hw), host.WithAutorun(true))
		h.SeedDocuments(fmt.Sprintf("user%d", i+1), opts.DocsPerHost)
		sc.Hosts = append(sc.Hosts, h)
	}
	sc.Patient0 = sc.Hosts[0]
	if _, err := sc.Patient0.Execute(fl.MainImage, true); err != nil {
		return nil, fmt.Errorf("infect patient zero: %w", err)
	}
	return sc, nil
}

// PushSpreadModules delivers SNACK/MUNCH/GADGET through C&C.
func (sc *EspionageScenario) PushSpreadModules() {
	for _, m := range []string{flame.ModSnack, flame.ModMunch, flame.ModGadget} {
		sc.Flame.PushModuleAll(m)
	}
}

// AramcoScenario is the Fig. 6 world: a corporate fleet under Shamoon.
type AramcoScenario struct {
	World    *World
	LAN      *netsim.LAN
	Hosts    []*host.Host
	Shamoon  *shamoon.Shamoon
	Reports  []*netsim.Request
	Patient0 *host.Host
	// Users is the benign population (nil for a silent fleet).
	Users *users.Population
}

// AramcoOptions tweak the scenario.
type AramcoOptions struct {
	Workstations int       // default 100
	DocsPerHost  int       // default 5
	TriggerAt    time.Time // default shamoon.AramcoTrigger
	SpreadEvery  time.Duration
	LeanImages   bool // small code bulk for fleet-scale runs
	JPEGBug      *bool
	MaxPerSweep  int // bound on new victims per host per spread round
	// BuildWorkers sizes the sharded fleet-construction pool (0 =
	// GOMAXPROCS). Any value produces byte-identical worlds.
	BuildWorkers int
	// EagerDocs seeds document bytes eagerly instead of lazily; the modes
	// are byte-equivalent (DESIGN.md §9) and this exists for the
	// equivalence tests.
	EagerDocs bool
	// Activity selects the benign user-activity mix for the fleet
	// (DESIGN.md §11). Zero defers to the world's Env; users.MixNone
	// forces a silent fleet.
	Activity users.Mix
	// The multi-site fields below shape one shard of a partitioned fleet
	// (DESIGN.md §14). LANName/Subnet give the site its own identity
	// (defaults "aramco-corp"/"10.30.0"); FirstIndex offsets workstation
	// numbering so site fleets concatenate into one WS-00001..WS-NNNNN
	// namespace; NoPatient0 leaves the site clean until infection arrives
	// from another partition; ReporterForward, when set, homes the wipe
	// reporter domain in another partition — reports route through the
	// cross-partition mailbox instead of a local server.
	LANName         string
	Subnet          string
	FirstIndex      int
	NoPatient0      bool
	ReporterForward func(*netsim.Request)
}

// BuildAramco assembles the scenario on an existing world. Patient zero is
// infected immediately (unless NoPatient0 defers the infection to a
// cross-site carry).
func BuildAramco(w *World, opts AramcoOptions) (*AramcoScenario, error) {
	if opts.Workstations <= 0 {
		opts.Workstations = 100
	}
	if opts.DocsPerHost <= 0 {
		opts.DocsPerHost = 5
	}
	if opts.LANName == "" {
		opts.LANName = "aramco-corp"
	}
	if opts.Subnet == "" {
		opts.Subnet = "10.30.0"
	}
	sc := &AramcoScenario{World: w}
	sc.LAN = w.NewLAN(opts.LANName, opts.Subnet, false)

	cfg := shamoon.Config{
		TriggerAt:      opts.TriggerAt,
		ReporterDomain: "home.kuwaitdomains.example",
		DriverKey:      w.PKI.EldosKey,
		DriverCert:     w.PKI.EldosCert,
		SpreadEvery:    opts.SpreadEvery,
		JPEGBug:        opts.JPEGBug,
		MaxPerSweep:    opts.MaxPerSweep,
	}
	if opts.LeanImages {
		cfg.BulkBytes = 1024
	}
	sh, err := shamoon.Build(w.K, cfg)
	if err != nil {
		return nil, err
	}
	sc.Shamoon = sh
	sh.BindTo(w.Registry)

	if opts.ReporterForward != nil {
		w.Internet.RegisterRemoteDomain(cfg.ReporterDomain, "203.0.113.66", opts.ReporterForward)
	} else {
		w.Internet.RegisterDomain(cfg.ReporterDomain, "203.0.113.66")
		w.Internet.BindServer("203.0.113.66", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
			sc.Reports = append(sc.Reports, req)
			return netsim.OK(nil)
		}))
	}

	docBytes := 64 * 1024
	if opts.LeanImages {
		docBytes = 3 * 1024
	}
	specs := make([]HostSpec, opts.Workstations)
	for i := range specs {
		specs[i] = HostSpec{
			Name: fmt.Sprintf("WS-%05d", opts.FirstIndex+i+1),
			Opts: []host.Option{host.WithDomain("ARAMCO"), host.WithShares(true),
				host.WithInternet(true), host.WithEagerDocs(opts.EagerDocs)},
			Seed: func(h *host.Host) error {
				if _, failed := h.SeedDocumentsSized("emp", opts.DocsPerHost, docBytes); failed != 0 {
					return fmt.Errorf("%d documents failed to seed", failed)
				}
				return nil
			},
		}
	}
	if sc.Hosts, err = w.AddHostsSharded(sc.LAN, opts.BuildWorkers, specs); err != nil {
		return nil, err
	}
	// The benign population attaches in the sequential phase after the
	// sharded merge, so agent RNG forks happen in host-index order and
	// the activity stream is invariant under BuildWorkers.
	if mix := w.env.fleetMix(opts.Activity); mix != "" {
		if sc.Users, err = users.Attach(w.K, sc.LAN, w.Internet, sc.Hosts, users.Config{Mix: mix}); err != nil {
			return nil, err
		}
	}
	sc.Patient0 = sc.Hosts[0]
	if !opts.NoPatient0 {
		if _, err := sc.Patient0.Execute(sh.MainImage, true); err != nil {
			return nil, fmt.Errorf("infect patient zero: %w", err)
		}
	}
	return sc, nil
}

// Infect runs the Shamoon dropper on the site's designated landing host
// — how a cross-site carry ignites a NoPatient0 shard.
func (sc *AramcoScenario) Infect() error {
	if sc.Shamoon.Infected(sc.Patient0.Name) {
		return nil
	}
	if _, err := sc.Patient0.Execute(sc.Shamoon.MainImage, true); err != nil {
		return fmt.Errorf("infect %s: %w", sc.Patient0.Name, err)
	}
	return nil
}

// CNIScenario is the detection-engine world: a critical-infrastructure
// enclave with one internet-exposed IIS host, a workstation fleet, the
// IRGC-style CNI espionage campaign, and (optionally) a live streaming
// detection engine watching the kernel's event stream.
type CNIScenario struct {
	World        *World
	LAN          *netsim.LAN
	Entry        *host.Host
	Workstations []*host.Host
	Center       *cnc.AttackCenter
	CNI          *cni.CNI
	// Engine is the live detection engine (nil unless Rules were given).
	Engine *detect.Engine
	// Users is the benign population on the workstations (nil for a
	// silent enclave).
	Users *users.Population
}

// CNIOptions tweak the scenario.
type CNIOptions struct {
	Workstations int // default 6
	Domains      int // default 12
	ServerIPs    int // default 4
	BeaconEvery  time.Duration
	LateralEvery time.Duration
	// Rules, when non-empty, attaches a streaming detect.Engine to the
	// kernel before any campaign activity, so the rules see every event.
	Rules []detect.Rule
	// Activity selects the benign user-activity mix for the workstation
	// fleet (DESIGN.md §11). Zero defers to the world's Env;
	// users.MixNone forces a silent enclave.
	Activity users.Mix
}

// BuildCNI assembles the scenario on an existing world. Nothing is
// compromised until Intrude.
func BuildCNI(w *World, opts CNIOptions) (*CNIScenario, error) {
	if opts.Workstations <= 0 {
		opts.Workstations = 6
	}
	if opts.Domains <= 0 {
		opts.Domains = 12
	}
	if opts.ServerIPs <= 0 {
		opts.ServerIPs = 4
	}
	sc := &CNIScenario{World: w}
	sc.LAN = w.NewLAN("cni-enclave", "10.60.0", false)

	center, err := cnc.NewAttackCenter(w.K, w.Internet, opts.Domains, opts.ServerIPs)
	if err != nil {
		return nil, err
	}
	sc.Center = center
	center.Admin().ProvisionAll(30 * time.Minute)

	c, err := cni.Build(w.K, cni.Config{
		Center:       center,
		BeaconEvery:  opts.BeaconEvery,
		LateralEvery: opts.LateralEvery,
	})
	if err != nil {
		return nil, err
	}
	sc.CNI = c
	c.BindTo(w.Registry)

	if len(opts.Rules) > 0 {
		if sc.Engine, err = detect.Attach(w.K, opts.Rules); err != nil {
			return nil, err
		}
	}

	sc.Entry = w.AddHost(sc.LAN, "IIS-01",
		host.WithOS(host.WinServer2008), host.WithShares(true), host.WithInternet(true))
	for i := 0; i < opts.Workstations; i++ {
		sc.Workstations = append(sc.Workstations,
			w.AddHost(sc.LAN, fmt.Sprintf("CNI-WS-%02d", i+1),
				host.WithShares(true), host.WithInternet(true)))
	}
	// Benign population on the workstations only — the IIS entry host
	// serves content, nobody does desk work on it.
	if mix := w.env.fleetMix(opts.Activity); mix != "" {
		if sc.Users, err = users.Attach(w.K, sc.LAN, w.Internet, sc.Workstations, users.Config{Mix: mix}); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// Intrude mounts the initial access: the stolen-credential VPN login and
// the web-shell drop on the exposed entry host.
func (sc *CNIScenario) Intrude() error {
	return sc.CNI.Intrude(sc.LAN, sc.Entry)
}

// WipedCount counts unbootable, wiped hosts.
func (sc *AramcoScenario) WipedCount() int {
	n := 0
	for _, h := range sc.Hosts {
		if h.Wiped && !h.Bootable() {
			n++
		}
	}
	return n
}

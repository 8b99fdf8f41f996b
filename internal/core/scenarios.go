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
	"repro/internal/runstats"
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

	sc.Engineer = w.AddHost(sc.LAN, "ENG-STATION", host.WithOS(host.Win7), host.WithShares(true))
	for i := 0; i < opts.OfficeHosts; i++ {
		sc.Offices = append(sc.Offices, w.AddHost(sc.LAN, fmt.Sprintf("OFFICE-%d", i+1),
			host.WithOS(host.Win7), host.WithShares(true)))
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
	Workstations int // default 100
	DocsPerHost  int // default 5
	SpreadEvery  time.Duration
	LeanImages   bool // small code bulk for fleet-scale runs
	JPEGBug      *bool
	MaxPerSweep  int // bound on new victims per host per spread round
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
		accepted := netsim.OK(nil)
		w.Internet.BindServer("203.0.113.66", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
			sc.Reports = append(sc.Reports, req)
			return accepted
		}))
	}

	docBytes := 64 * 1024
	if opts.LeanImages {
		docBytes = 3 * 1024
	}
	names := make([]string, opts.Workstations)
	for i := range names {
		names[i] = fmt.Sprintf("WS-%05d", opts.FirstIndex+i+1)
	}
	sc.Hosts = w.AddHosts(sc.LAN, names, host.WithDomain("ARAMCO"), host.WithShares(true),
		host.WithInternet(true), host.WithEagerDocs(opts.EagerDocs))
	if err := seedFleetDocs(sc.Hosts, opts.DocsPerHost, docBytes); err != nil {
		return nil, err
	}
	if mix := w.env.fleetMix(opts.Activity); mix != "" {
		if sc.Users, err = users.Attach(w.K, sc.LAN, w.Internet, sc.Hosts, mix); err != nil {
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

// seedFleetDocs seeds every host's documents, in host order. The time
// counts toward the fleet-build phase with host construction. A host
// whose documents do not all seed fails the build, naming the host.
func seedFleetDocs(hosts []*host.Host, n, maxBytes int) error {
	defer runstats.Phase("fleet-build")()
	for _, h := range hosts {
		if _, failed := h.SeedDocumentsSized("emp", n, maxBytes); failed != 0 {
			return fmt.Errorf("core: build host %s: %d documents failed to seed", h.Name, failed)
		}
	}
	return nil
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

// The CNI campaign's C&C pool: 12 domains on 4 servers, a smaller
// footprint than the Flame platform's 80 on 22.
const (
	cniDomains   = 12
	cniServerIPs = 4
)

// CNIOptions tweak the scenario.
type CNIOptions struct {
	Workstations int // default 6
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
	sc := &CNIScenario{World: w}
	sc.LAN = w.NewLAN("cni-enclave", "10.60.0", false)

	center, err := cnc.NewAttackCenter(w.K, w.Internet, cniDomains, cniServerIPs)
	if err != nil {
		return nil, err
	}
	sc.Center = center
	center.Admin().ProvisionAll(30 * time.Minute)

	c, err := cni.Build(w.K, center)
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
		if sc.Users, err = users.Attach(w.K, sc.LAN, w.Internet, sc.Workstations, mix); err != nil {
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

// Package core is the public API of the cyber-range: scenario builders
// that assemble the substrates (hosts, LANs, PKI, C&C, plants) into the
// worlds the paper describes, campaign runners for the three cyber
// weapons, and one experiment driver per figure and quantitative claim
// (see DESIGN.md for the experiment index).
//
// Each experiment returns a Result carrying its pass criterion, named
// metrics, a one-line measured Summary, and the obs telemetry of every
// kernel it drove (CaptureObs concatenates, CaptureObsMerged time-merges
// a partitioned world's streams). One ordered registry lists the
// experiments (ExperimentIDs) and resolves them (LookupExperiment).
// RunExperiments fans experiments across a worker pool with
// byte-identical output for any worker count; SweepSeeds aggregates
// metrics and obs snapshots across a Monte Carlo seed sweep;
// RenderExperimentsMarkdown turns a run's reports into EXPERIMENTS.md,
// making the committed document a build artefact. C7, the one
// partitioned experiment, runs through RunAramcoFleet with the
// C7Options layout.
package core

import (
	"fmt"
	"time"

	"repro/internal/host"
	"repro/internal/malware"
	"repro/internal/netsim"
	"repro/internal/pki"
	"repro/internal/runstats"
	"repro/internal/sim"
)

// WorldPKI is the certificate landscape every scenario shares: a strong
// root, the weak-digest licensing intermediate (Flame's forging target),
// stolen driver-vendor credentials (Stuxnet), the legitimate raw-disk
// vendor (Shamoon), and a genuine update-signing identity.
type WorldPKI struct {
	Root        *pki.Authority
	Licensing   *pki.Authority
	BaseStore   *pki.Store // trusts Root; cloned into every host
	StolenKey   *pki.Keypair
	RealtekCert *pki.Certificate
	JMicronCert *pki.Certificate
	EldosKey    *pki.Keypair
	EldosCert   *pki.Certificate
	UpdateKey   *pki.Keypair
	UpdateCert  *pki.Certificate
	AttackerKey *pki.Keypair
	TSLSCert    *pki.Certificate
	ForgedCert  *pki.Certificate // nil until ForgeUpdateCert succeeds
}

// ForgedChain returns the chain the fake Windows Update is signed under.
func (p *WorldPKI) ForgedChain() []*pki.Certificate {
	if p.ForgedCert == nil {
		return nil
	}
	return []*pki.Certificate{p.ForgedCert, p.Licensing.Cert}
}

// World is a complete simulated environment.
type World struct {
	K        *sim.Kernel
	Internet *netsim.Internet
	Radio    *netsim.Radio
	PKI      *WorldPKI
	Registry *malware.Registry
	WU       *netsim.WindowsUpdate

	env   *Env
	lans  map[string]*netsim.LAN
	hosts map[string]*netsim.LAN    // host name -> its LAN
	extra map[string]map[string]any // host name -> implant Extra
}

// WorldConfig parameterizes NewWorld.
type WorldConfig struct {
	// Env is the run environment the world belongs to (nil is the zero
	// Env): its kernel joins the Env's experiment scope, and its fleets
	// default to the Env's activity mix.
	Env   *Env
	Seed  uint64
	Start time.Time // zero = sim.Epoch
	// MuteTrace disables trace record retention (counters still work);
	// fleet benchmarks set it.
	MuteTrace bool
}

// NewWorld builds the shared infrastructure. Every experiment kernel is
// born here, so this is also where the wall-clock telemetry plane
// attaches its sampling probe (a no-op unless `cyberlab -progress` or
// `cyberlab profile` enabled a collector; probes are read-only and
// never perturb the deterministic plane — DESIGN.md §12).
func NewWorld(cfg WorldConfig) (*World, error) {
	defer runstats.Phase("world-build")()
	opts := []sim.Option{sim.WithSeed(cfg.Seed), sim.WithTraceCapacity(1 << 14)}
	if !cfg.Start.IsZero() {
		opts = append(opts, sim.WithStart(cfg.Start))
	}
	k := sim.NewKernel(opts...)
	runstats.AttachKernel(k)
	cfg.Env.superviseKernel(k)
	if cfg.MuteTrace {
		k.Trace().SetMuted(true)
	}
	w := &World{
		K:        k,
		Internet: netsim.NewInternet(k),
		Radio:    netsim.NewRadio(k),
		env:      cfg.Env,
		lans:     make(map[string]*netsim.LAN),
		hosts:    make(map[string]*netsim.LAN),
		extra:    make(map[string]map[string]any),
	}
	var err error
	if w.PKI, err = buildWorldPKI(k); err != nil {
		return nil, err
	}
	w.WU = netsim.NewWindowsUpdate(w.Internet, "198.51.100.200")
	// Connectivity-probe targets (Stuxnet checks these before C&C).
	w.Internet.RegisterDomain("www.windowsupdate.com", "198.51.100.201")
	w.Internet.RegisterDomain("www.msn.com", "198.51.100.202")
	ok := netsim.HandlerFunc(func(*netsim.Request) *netsim.Response { return netsim.OK(nil) })
	w.Internet.BindServer("198.51.100.201", ok)
	w.Internet.BindServer("198.51.100.202", ok)

	w.Registry = malware.NewRegistry(func(h *host.Host) *malware.Env {
		return &malware.Env{
			K: w.K, Host: h, LAN: w.hosts[h.Name], Internet: w.Internet,
			Radio: w.Radio, Extra: w.extra[h.Name],
		}
	})
	return w, nil
}

func seed32(base uint64, tag byte) [32]byte {
	var s [32]byte
	for i := 0; i < 8; i++ {
		s[i] = byte(base >> (8 * i))
	}
	s[8] = tag
	return s
}

func buildWorldPKI(k *sim.Kernel) (*WorldPKI, error) {
	now := k.Now()
	longAgo := now.Add(-5 * 365 * 24 * time.Hour)
	p := &WorldPKI{}
	p.Root = pki.NewRoot("SimTrust Root CA", pki.HashStrong, seed32(1, 'r'), longAgo, 100*365*24*time.Hour)
	var err error
	// The legacy licensing intermediate still signs with the weak digest.
	p.Licensing, err = p.Root.Subordinate(longAgo, "SimSoft Licensing PCA", pki.HashWeak, seed32(1, 'l'), 50*365*24*time.Hour)
	if err != nil {
		return nil, fmt.Errorf("core: licensing intermediate: %w", err)
	}

	issue := func(key *pki.Keypair, subject string, usages pki.KeyUsage) (*pki.Certificate, error) {
		return p.Root.Issue(longAgo.Add(24*time.Hour), pki.IssueRequest{
			Subject: subject, Usages: usages,
			Lifetime: 20 * 365 * 24 * time.Hour, PubKey: key.Public,
		})
	}
	p.StolenKey = pki.NewKeypair(seed32(2, 's'))
	if p.RealtekCert, err = issue(p.StolenKey, "Realtek Semiconductor Corp", pki.UsageDriverSign|pki.UsageCodeSign); err != nil {
		return nil, err
	}
	if p.JMicronCert, err = issue(p.StolenKey, "JMicron Technology Corp", pki.UsageDriverSign|pki.UsageCodeSign); err != nil {
		return nil, err
	}
	p.EldosKey = pki.NewKeypair(seed32(3, 'e'))
	if p.EldosCert, err = issue(p.EldosKey, "Eldos Corporation", pki.UsageDriverSign); err != nil {
		return nil, err
	}
	p.UpdateKey = pki.NewKeypair(seed32(4, 'u'))
	if p.UpdateCert, err = issue(p.UpdateKey, "SimSoft Update Signing", pki.UsageCodeSign); err != nil {
		return nil, err
	}
	// The attacker's legitimately activated Terminal Services license
	// server certificate: license-only usage, weak digest.
	p.AttackerKey = pki.NewKeypair(seed32(5, 'a'))
	p.TSLSCert, err = p.Licensing.Issue(longAgo.Add(48*time.Hour), pki.IssueRequest{
		Subject: "Contoso Terminal Services LS", Usages: pki.UsageLicenseOnly,
		Lifetime: 20 * 365 * 24 * time.Hour, PubKey: p.AttackerKey.Public,
	})
	if err != nil {
		return nil, err
	}
	p.BaseStore = pki.NewStore(p.Root.Cert)
	return p, nil
}

// ForgeUpdateCert mounts the Fig. 3 collision attack, populating
// PKI.ForgedCert. It is idempotent.
func (w *World) ForgeUpdateCert() error {
	if w.PKI.ForgedCert != nil {
		return nil
	}
	forged, err := pki.ForgeFromWeakCert(w.PKI.TSLSCert, pki.Certificate{
		Serial:    424242,
		Subject:   "SimSoft Windows Update",
		Usages:    pki.UsageCodeSign,
		NotBefore: w.PKI.TSLSCert.NotBefore,
		NotAfter:  w.PKI.TSLSCert.NotAfter,
		PubKey:    w.PKI.AttackerKey.Public,
	})
	if err != nil {
		return fmt.Errorf("core: forge update cert: %w", err)
	}
	w.PKI.ForgedCert = forged
	return nil
}

// IssueAdvisory distrusts the licensing intermediate on every host — the
// Microsoft advisory 2718704 response.
func (w *World) IssueAdvisory() {
	for name := range w.hosts {
		if h := w.Host(name); h != nil {
			h.CertStore.Distrust(w.PKI.Licensing.Cert.Serial, "advisory 2718704")
		}
	}
	w.K.Trace().Add(w.K.Now(), sim.CatCert, "world", "advisory issued: licensing intermediate distrusted fleet-wide")
}

// NewLAN creates (or returns) a named LAN. airGapped LANs have no uplink.
func (w *World) NewLAN(name, subnet string, airGapped bool) *netsim.LAN {
	if l, ok := w.lans[name]; ok {
		return l
	}
	uplink := w.Internet
	if airGapped {
		uplink = nil
	}
	l := netsim.NewLAN(w.K, name, subnet, uplink)
	w.lans[name] = l
	return l
}

// AddHost creates a host on the LAN with the world trust store and the
// malware dispatcher attached.
func (w *World) AddHost(lan *netsim.LAN, name string, opts ...host.Option) *host.Host {
	all := append([]host.Option{host.WithCertStore(w.PKI.BaseStore.Clone())}, opts...)
	h := host.New(w.K, name, all...)
	lan.Attach(h)
	w.hosts[name] = lan
	w.extra[name] = make(map[string]any)
	w.Registry.Attach(h)
	if c := runstats.Active(); c != nil {
		c.AddHosts(1)
	}
	return h
}

// Host returns a host by name (nil if unknown).
func (w *World) Host(name string) *host.Host {
	lan, ok := w.hosts[name]
	if !ok {
		return nil
	}
	if node := lan.Node(name); node != nil {
		return node.Host
	}
	return nil
}

// SetExtra attaches scenario context (e.g. a Step7 install) to a host's
// implant environment.
func (w *World) SetExtra(hostName, key string, value any) {
	if m, ok := w.extra[hostName]; ok {
		m[key] = value
	}
}

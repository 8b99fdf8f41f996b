// Package users is the range's benign user-activity layer: deterministic
// per-host user agents that keep a fleet busy with ordinary work so the
// detection experiments measure signal against a realistic noise floor
// instead of a silent world (Dey et al., "Realistic simulation of users
// for IT systems in cyber ranges").
//
// Each agent follows a seeded daily-rhythm profile — office worker,
// admin, developer, kiosk — and emits real simulator actions through the
// same substrate the malware models use: document churn via the lazy-COW
// host filesystem, mail and web browsing through netsim, file-share
// copies, USB plug/copy cycles, and the admin's credentialed
// RDP + SMB-copy + remote-exec maintenance rounds. Every action therefore
// produces the same trace events, spans and telemetry analogs an
// intrusion produces, which is exactly what makes the noise honest: a
// rule that cannot tell the admin's PsExec from the attacker's pays for
// it in measured false positives (experiments D4/D5).
//
// Determinism contract (DESIGN.md §11): an agent owns an RNG forked from
// its host's stream at attach time, ticks on the shared kernel's pooled
// timers, and draws nothing while off-shift — so for a fixed seed the
// action stream is a pure function of the profile mix and byte-identical
// at any worker count. Action breadcrumbs are emitted as cat=user trace
// records named users.<noun>.<verb>, matching the layer's metric names;
// all of an agent's actions carry its users.session.start span, so a
// false positive chains back to the responsible benign session via
// `cyberlab trace -chain`.
package users

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/usb"
)

// Profile names one daily-rhythm behaviour class.
type Profile string

// The four agent profiles. Work hours gate the hourly tick; outside them
// an agent draws no randomness at all, so shift boundaries cannot skew
// the RNG stream.
const (
	// Office churns documents, mail, web, file shares and the odd USB
	// stick between 08:00 and 18:00.
	Office Profile = "office"
	// Admin does light office work plus a daily maintenance round —
	// RDP login, patch copy, remote exec against one fleet host — the
	// benign twin of the PSEXESVC telemetry the rule pack watches.
	Admin Profile = "admin"
	// Developer runs build tools and pushes artefacts to shares between
	// 09:00 and 19:00.
	Developer Profile = "developer"
	// Kiosk browses the web around the clock and touches nothing else.
	Kiosk Profile = "kiosk"
)

// Mix names a fleet-level profile assignment: host i's profile is a pure
// function of (mix, i), so a sharded fleet build at any worker count
// yields the same population.
type Mix string

// The built-in mixes. The zero value "" means "unset" (scenario builders
// fall back to the run environment's mix); MixNone is the explicit
// silent fleet.
const (
	MixNone      Mix = "none"
	MixOffice    Mix = "office"
	MixDeveloper Mix = "developer"
	MixKiosk     Mix = "kiosk"
	// MixEnterprise is the populated-fleet default: host 0 is the admin,
	// every fifth-ish host a developer, a few kiosks, the rest office.
	MixEnterprise Mix = "enterprise"
)

// ParseMix validates a mix name from a flag or config.
func ParseMix(s string) (Mix, error) {
	switch Mix(s) {
	case MixNone, MixOffice, MixDeveloper, MixKiosk, MixEnterprise:
		return Mix(s), nil
	}
	return "", fmt.Errorf("users: unknown activity mix %q (none, office, developer, kiosk, enterprise)", s)
}

// ProfileFor assigns host index i its profile under the mix. Empty means
// no agent.
func (m Mix) ProfileFor(i int) Profile {
	switch m {
	case MixOffice:
		return Office
	case MixDeveloper:
		return Developer
	case MixKiosk:
		return Kiosk
	case MixEnterprise:
		switch {
		case i == 0:
			return Admin
		case i%5 == 3:
			return Developer
		case i%9 == 7:
			return Kiosk
		default:
			return Office
		}
	}
	return ""
}

// Config parameterizes a population. Zero values get defaults in Attach.
type Config struct {
	// Mix assigns profiles by host index (required; MixNone attaches
	// nobody).
	Mix Mix
	// TickEvery is the action cadence during work hours (default 1h).
	TickEvery time.Duration
	// MaintainEvery is the admin maintenance-round period (default 24h).
	// At the default, the round's single RDP login stays below the
	// rdp-login-burst threshold window by construction — see DESIGN.md
	// §11 for the cadence/threshold arithmetic.
	MaintainEvery time.Duration
	// DocBytes caps generated document size (default 4 KiB; documents
	// are seeded lazily exactly like host.SeedDocumentsSized).
	DocBytes int
}

// Stats aggregates what the population did; deterministic for a fixed
// seed.
type Stats struct {
	Agents       int
	DocWrites    int
	MailsSent    int
	MailsRead    int
	WebVisits    int
	ShareCopies  int
	USBCycles    int
	ToolRuns     int
	RDPLogins    int
	Maintenances int
	TasksCreated int
	// ActionErrors counts actions the substrate refused (target down,
	// shares closed, no uplink). The draw still happened, so the RNG
	// stream is unaffected.
	ActionErrors int
}

// Actions returns the total benign actions performed.
func (s Stats) Actions() int {
	return s.DocWrites + s.MailsSent + s.MailsRead + s.WebVisits +
		s.ShareCopies + s.USBCycles + s.ToolRuns + s.Maintenances
}

// Agent is one simulated human on one host.
type Agent struct {
	H       *host.Host
	Profile Profile
	// Session is the agent's root provenance span: every action the agent
	// performs is stamped with it, so alerts its telemetry trips chain
	// back to the benign session.
	Session obs.Span

	pop     *Population
	rng     *sim.RNG
	user    string
	docSlot int
	peerIdx int
	drive   *usb.Drive
}

// Population is a set of agents attached to one LAN's hosts.
type Population struct {
	K   *sim.Kernel
	LAN *netsim.LAN

	Agents []*Agent
	Stats  Stats

	cfg      Config
	reportMu []byte // shared immutable buffer for share/USB copies
	mailRaw  []byte
	patchRaw []byte
	patchImg *pe.File
	toolImg  *pe.File

	mDoc, mMailSend, mMailRead, mWeb    *obs.Counter
	mShare, mUSB, mTool, mRDP           *obs.Counter
	mMaintain, mTask, mAttach, mRefused *obs.Counter
}

// Benign corporate endpoints EnsureServices registers on the simulated
// internet. Addresses live in the 198.51.100.0/24 TEST-NET block next to
// the world's other infrastructure.
const (
	MailDomain = "mail.corp.example"
	mailIP     = netsim.IP("198.51.100.60")
)

var webSites = []struct {
	Domain string
	IP     netsim.IP
}{
	{"portal.corp.example", "198.51.100.61"},
	{"news.example", "198.51.100.62"},
	{"weather.example", "198.51.100.63"},
}

// EnsureServices registers the benign mail and web endpoints agents talk
// to. Registration is idempotent: re-binding the same name/IP pair is a
// no-op in effect, so multiple populations can share one internet.
func EnsureServices(in *netsim.Internet) {
	if in == nil {
		return
	}
	page := []byte("<html>corporate portal</html>")
	ok := netsim.HandlerFunc(func(*netsim.Request) *netsim.Response { return netsim.OK(page) })
	in.RegisterDomain(MailDomain, mailIP)
	inbox := []byte("inbox: 3 unread")
	in.BindServer(mailIP, netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		if req.Method == "POST" {
			return netsim.OK(nil)
		}
		return netsim.OK(inbox)
	}))
	for _, s := range webSites {
		in.RegisterDomain(s.Domain, s.IP)
		in.BindServer(s.IP, ok)
	}
}

// docExts are the document types office agents churn (a subset of what
// the collection malware hunts, so noise documents are plausible loot).
var docExts = []string{"docx", "xlsx", "pdf", "txt"}

// Attach builds one agent per host according to cfg.Mix and starts their
// timers. It must be called from the sequential phase of fleet
// construction (after AddHostsSharded's merge), so the per-agent RNG
// forks happen in host-index order regardless of build workers. internet
// may be nil (air-gapped fleets skip mail/web).
func Attach(k *sim.Kernel, lan *netsim.LAN, internet *netsim.Internet, hosts []*host.Host, cfg Config) (*Population, error) {
	if cfg.Mix == "" || cfg.Mix == MixNone {
		return nil, fmt.Errorf("users: Attach needs an activity mix (got %q)", cfg.Mix)
	}
	if _, err := ParseMix(string(cfg.Mix)); err != nil {
		return nil, err
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = time.Hour
	}
	if cfg.MaintainEvery <= 0 {
		cfg.MaintainEvery = 24 * time.Hour
	}
	if cfg.DocBytes < 2048 {
		cfg.DocBytes = 4 * 1024
	}
	p := &Population{K: k, LAN: lan, cfg: cfg}
	m := k.Metrics()
	p.mDoc = m.Counter("users.doc.write")
	p.mMailSend = m.Counter("users.mail.send")
	p.mMailRead = m.Counter("users.mail.recv")
	p.mWeb = m.Counter("users.web.browse")
	p.mShare = m.Counter("users.share.copy")
	p.mUSB = m.Counter("users.usb.cycle")
	p.mTool = m.Counter("users.tool.run")
	p.mRDP = m.Counter("users.rdp.login")
	p.mMaintain = m.Counter("users.host.maintain")
	p.mTask = m.Counter("users.task.register")
	p.mAttach = m.Counter("users.agent.attach")
	p.mRefused = m.Counter("users.action.refused")

	EnsureServices(internet)
	p.reportMu = []byte(strings.Repeat("quarterly report draft \x00", 64))
	p.mailRaw = []byte("From: staff\r\nSubject: weekly status\r\n\r\nall quiet.")
	p.patchImg = &pe.File{
		Name: "kb-maint.exe", Machine: pe.MachineX86,
		Timestamp: time.Date(2012, 5, 8, 0, 0, 0, 0, time.UTC),
		Sections: []pe.Section{{Name: ".text", Characteristics: pe.SecCode | pe.SecExec,
			Data: []byte("monthly maintenance rollup installer\x00")}},
	}
	raw, err := p.patchImg.Marshal()
	if err != nil {
		return nil, fmt.Errorf("users: marshal patch image: %w", err)
	}
	p.patchRaw = raw
	p.toolImg = &pe.File{
		Name: "msbuild.exe", Machine: pe.MachineX86,
		Timestamp: time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC),
		Sections: []pe.Section{{Name: ".text", Characteristics: pe.SecCode | pe.SecExec,
			Data: []byte("build toolchain driver\x00")}},
	}

	for i, h := range hosts {
		prof := cfg.Mix.ProfileFor(i)
		if prof == "" {
			continue
		}
		p.attachAgent(h, prof)
	}
	return p, nil
}

// attachAgent wires one agent: its RNG fork, its session span, and its
// timers. Runs sequentially in host order — the worker-count invariance
// of the whole layer rests on that.
func (p *Population) attachAgent(h *host.Host, prof Profile) {
	a := &Agent{H: h, Profile: prof, pop: p, rng: h.RNG.Fork(), user: "emp-" + strings.ToLower(h.Name)}
	a.Session = p.K.OpenSpan(sim.CatUser, h.Name, "users.session.start "+string(prof), "user",
		obs.T("profile", string(prof)), obs.T("user", a.user))
	p.Agents = append(p.Agents, a)
	p.Stats.Agents++
	p.mAttach.Inc()
	p.K.Every(p.cfg.TickEvery, "users-tick:"+h.Name, func() { p.tick(a) })
	if prof == Admin {
		// Routine persistence the pack must NOT fire on: a Program Files
		// inventory task, registered up front (the benign Event-4698).
		p.K.WithCause(sim.Cause{Span: a.Session, Vector: "user"}, func() {
			h.ScheduleTask("inventory-scan", `C:\Program Files\Inventory\scan.exe`,
				p.K.Now().Add(30*24*time.Hour))
		})
		p.Stats.TasksCreated++
		p.mTask.Inc()
		p.K.Every(p.cfg.MaintainEvery, "users-admin:"+h.Name, func() { p.maintain(a) })
	}
}

// activeAt gates the tick on the profile's work hours. Purely a function
// of virtual time: no draws happen off-shift.
func activeAt(prof Profile, t time.Time) bool {
	hr := t.UTC().Hour()
	switch prof {
	case Office, Admin:
		return hr >= 8 && hr < 18
	case Developer:
		return hr >= 9 && hr < 19
	case Kiosk:
		return true
	}
	return false
}

// tick performs one work-hours action under the agent's session span.
func (p *Population) tick(a *Agent) {
	if a.H.Down || !activeAt(a.Profile, p.K.Now()) {
		return
	}
	p.K.WithCause(sim.Cause{Span: a.Session, Vector: "user"}, func() { p.act(a) })
}

// act draws once and dispatches on the profile's action weights.
func (p *Population) act(a *Agent) {
	r := a.rng.Float64()
	switch a.Profile {
	case Office:
		switch {
		case r < 0.35:
			p.writeDoc(a)
		case r < 0.50:
			p.mail(a, true)
		case r < 0.62:
			p.mail(a, false)
		case r < 0.77:
			p.browse(a)
		case r < 0.92:
			p.shareCopy(a)
		default:
			p.usbCycle(a)
		}
	case Admin:
		switch {
		case r < 0.45:
			p.writeDoc(a)
		case r < 0.70:
			p.mail(a, true)
		default:
			p.browse(a)
		}
	case Developer:
		switch {
		case r < 0.25:
			p.writeDoc(a)
		case r < 0.45:
			p.toolRun(a)
		case r < 0.65:
			p.shareCopy(a)
		case r < 0.85:
			p.browse(a)
		default:
			p.mail(a, true)
		}
	case Kiosk:
		p.browse(a)
	}
}

// breadcrumb emits the action's cat=user trace record. Skipped entirely
// on dead traces (muted, no subscribers) so 30k busy hosts pay nothing
// for it in fleet benchmarks; counters and substrate events are never
// gated this way.
func (p *Population) breadcrumb(a *Agent, msg string) {
	tr := p.K.Trace()
	if !tr.Live() {
		return
	}
	tr.Emit(p.K.Now(), sim.CatUser, a.H.Name, msg,
		obs.T("user", a.user), obs.T("profile", string(a.Profile)))
}

// writeDoc creates or rewrites one document in the agent's rotating slot
// set. Content is lazy-COW exactly like host.SeedDocumentsSized: the file
// records the RNG position and the stream skips what eager generation
// would have consumed — so a populated 30k fleet stays cheap and a later
// read (or wipe) sees the same bytes either way. The slot cap bounds
// per-host file growth however long the run.
func (p *Population) writeDoc(a *Agent) {
	const docSlots = 8
	slot := a.docSlot % docSlots
	a.docSlot++
	ext := docExts[a.rng.Intn(len(docExts))]
	size := 1024 + a.rng.Intn(p.cfg.DocBytes-1024)
	name := fmt.Sprintf("draft-%02d.%s", slot, ext)
	path := `C:\Users\` + a.user + `\documents\` + name
	var err error
	if a.H.EagerDocs {
		data := a.rng.Bytes(size)
		err = a.H.FS.Write(path, data, 0, p.K.Now())
	} else {
		lc := host.LazyContent{Seed: a.rng.State(), Len: size, Doc: true}
		a.rng.Skip((size + 7) / 8)
		err = a.H.FS.WriteLazy(path, lc, 0, p.K.Now())
	}
	if err != nil {
		p.refused(a)
		return
	}
	p.Stats.DocWrites++
	p.mDoc.Inc()
	p.breadcrumb(a, "users.doc.write "+name)
}

// mail sends (send=true) or polls (send=false) the corporate mail host.
func (p *Population) mail(a *Agent, send bool) {
	if !a.H.Internet || p.LAN.Uplink == nil {
		p.refused(a)
		return
	}
	req := &netsim.Request{Method: "GET", Host: MailDomain, Path: "/inbox"}
	if send {
		req.Method, req.Path, req.Body = "POST", "/send", p.mailRaw
	}
	if _, err := p.LAN.HTTP(a.H, req); err != nil {
		p.refused(a)
		return
	}
	if send {
		p.Stats.MailsSent++
		p.mMailSend.Inc()
		p.breadcrumb(a, "users.mail.send "+MailDomain)
	} else {
		p.Stats.MailsRead++
		p.mMailRead.Inc()
		p.breadcrumb(a, "users.mail.recv "+MailDomain)
	}
}

// browse fetches one page from the benign web pool. The site draw happens
// before the reachability check so the RNG stream does not depend on
// uplink state.
func (p *Population) browse(a *Agent) {
	site := webSites[a.rng.Intn(len(webSites))].Domain
	if !a.H.Internet || p.LAN.Uplink == nil {
		p.refused(a)
		return
	}
	if _, err := p.LAN.HTTP(a.H, &netsim.Request{Method: "GET", Host: site, Path: "/"}); err != nil {
		p.refused(a)
		return
	}
	p.Stats.WebVisits++
	p.mWeb.Inc()
	p.breadcrumb(a, "users.web.browse "+site)
}

// shareCopy drops the agent's report on the next peer's public share —
// the benign cat=spread "smb copy" telemetry. The buffer is shared and
// immutable; targets alias it (DESIGN.md §9), and the fixed per-source
// path bounds target-side file growth.
func (p *Population) shareCopy(a *Agent) {
	target := p.LAN.PeerAt(a.H.Name, a.peerIdx)
	a.peerIdx++
	if target == nil {
		p.refused(a)
		return
	}
	path := `C:\Users\Public\reports\` + a.user + `.docx`
	if err := p.LAN.CopyToShare(a.H, target.Name, path, p.reportMu); err != nil {
		p.refused(a)
		return
	}
	p.Stats.ShareCopies++
	p.mShare.Inc()
	p.breadcrumb(a, "users.share.copy to "+target.Name)
}

// usbCycle plugs the agent's personal stick, parks the report on it, and
// removes it — the benign cat=usb telemetry.
func (p *Population) usbCycle(a *Agent) {
	if a.drive == nil {
		a.drive = usb.NewDrive("USB-" + a.H.Name)
	}
	a.H.InsertUSB(a.drive)
	a.drive.Put("backup-"+a.user+".docx", p.reportMu, false)
	a.H.RemoveUSB()
	p.Stats.USBCycles++
	p.mUSB.Inc()
	p.breadcrumb(a, "users.usb.cycle "+a.drive.Label)
}

// toolRun executes the benign build tool — ordinary cat=exec telemetry
// with an image name no rule content matches.
func (p *Population) toolRun(a *Agent) {
	if _, err := a.H.Execute(p.toolImg, false); err != nil {
		p.refused(a)
		return
	}
	p.Stats.ToolRuns++
	p.mTool.Inc()
	p.breadcrumb(a, "users.tool.run "+p.toolImg.Name)
}

// maintain is the admin's maintenance round against the next fleet host
// in rotation: RDP login, patch copy, remote exec. This is deliberately
// the same telemetry triple the campaigns emit — the irreducible benign
// PsExec false positive D3/D5 price out — at a cadence every threshold
// rule stays silent on.
func (p *Population) maintain(a *Agent) {
	if a.H.Down {
		return
	}
	p.K.WithCause(sim.Cause{Span: a.Session, Vector: "user"}, func() {
		target := p.LAN.PeerAt(a.H.Name, a.peerIdx)
		a.peerIdx++
		if target == nil {
			return
		}
		const patchPath = `C:\Patches\kb-maint.exe`
		if err := p.LAN.RDPLogin(a.H, target.Name, a.user); err != nil {
			p.refused(a)
			return
		}
		p.Stats.RDPLogins++
		p.mRDP.Inc()
		if err := p.LAN.CopyToShare(a.H, target.Name, patchPath, p.patchRaw); err != nil {
			p.refused(a)
			return
		}
		if err := p.LAN.RemoteExec(a.H, target.Name, patchPath); err != nil {
			p.refused(a)
			return
		}
		p.Stats.Maintenances++
		p.mMaintain.Inc()
		p.breadcrumb(a, "users.host.maintain "+target.Name)
	})
}

func (p *Population) refused(a *Agent) {
	p.Stats.ActionErrors++
	p.mRefused.Inc()
}

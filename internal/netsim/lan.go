package netsim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/sim"
)

// ProxyHandler lets a machine that has become another machine's proxy
// inspect and possibly replace traffic. Returning a non-nil response
// short-circuits the request (the MITM case); returning nil forwards it
// unchanged.
type ProxyHandler func(req *Request) *Response

// Node is a LAN attachment record for one host.
type Node struct {
	Host *host.Host
	IP   IP
	// WPADResponder, when set, answers NetBIOS WPAD broadcasts with a
	// proxy configuration naming this (or another) machine. Flame's SNACK
	// module installs one.
	WPADResponder func(from *host.Host) (proxyHost string, ok bool)
	// Proxy intercepts HTTP traffic from hosts whose ProxyHost names this
	// node. Flame's MUNCH module installs one.
	Proxy ProxyHandler
	// StaticARP hardens the host against gratuitous-ARP redirection.
	StaticARP bool
}

// LAN is one broadcast domain. A nil Uplink models an air-gapped network.
type LAN struct {
	Name   string
	K      *sim.Kernel
	Uplink *Internet

	nodes  map[string]*Node // by lower-cased host name
	nextIP int
	subnet string

	// Sorted-view caches, rebuilt lazily and invalidated by Attach. The
	// spread sweeps of a 30,000-host fleet call Peers once per infected
	// host per round; re-sorting the node map every time dominated the
	// profile.
	sortedHosts []*host.Host
	sortedNames []string
	peersBuf    []*host.Host

	// impair is the segment's current degradation (see SetImpairment).
	impair Impairment

	// Cached metric handles; the SMB/psexec paths run once per peer per
	// spread round at fleet scale.
	mAttach, mSMBCopy, mPsexec, mSpooler, mWPAD, mARP, mProxied, mDrop, mRDP *obs.Counter
}

// Impairment degrades a LAN segment: Loss is the probability one
// operation (HTTP, SMB probe/copy, psexec, spooler print job) is dropped;
// Latency is added to store-and-forward deliveries such as the spooler's
// MOF-launch delay. The zero value is a healthy segment.
type Impairment struct {
	Loss    float64
	Latency time.Duration
}

// ErrPacketLoss is returned when an impaired segment drops an operation.
var ErrPacketLoss = errors.New("netsim: packet lost (LAN impaired)")

// SetImpairment applies imp to the segment (zero value restores health).
func (l *LAN) SetImpairment(imp Impairment) { l.impair = imp }

// dropped decides one operation's fate under the current impairment. It
// is RNG-neutral at the extremes: Loss <= 0 never draws and never drops,
// Loss >= 1 never draws and always drops — so baseline worlds and
// total-blackout worlds consume identical RNG streams and stay
// byte-identical with their unimpaired twins.
func (l *LAN) dropped(op, from string) bool {
	p := l.impair.Loss
	if p <= 0 {
		return false
	}
	if p < 1 && l.K.RNG().Float64() >= p {
		return false
	}
	l.mDrop.Inc()
	l.K.Trace().Emit(l.K.Now(), sim.CatFault, from, "packet loss: "+op+" dropped",
		obs.T("op", op))
	return true
}

// NewLAN creates a LAN. uplink may be nil for air-gapped segments.
func NewLAN(k *sim.Kernel, name, subnet string, uplink *Internet) *LAN {
	m := k.Metrics()
	return &LAN{
		Name:     name,
		K:        k,
		Uplink:   uplink,
		nodes:    make(map[string]*Node),
		subnet:   subnet,
		mAttach:  m.Counter("lan.host.attach"),
		mSMBCopy: m.Counter("lan.smb.copy"),
		mPsexec:  m.Counter("lan.psexec.exec"),
		mSpooler: m.Counter("lan.spooler.exploit"),
		mWPAD:    m.Counter("lan.wpad.answer"),
		mARP:     m.Counter("lan.arp.poison"),
		mProxied: m.Counter("lan.http.proxied"),
		mDrop:    m.Counter("lan.impair.drop"),
		mRDP:     m.Counter("lan.rdp.login"),
	}
}

// Attach joins a host to the LAN, assigning it an address.
func (l *LAN) Attach(h *host.Host) *Node {
	l.nextIP++
	n := &Node{Host: h, IP: IP(fmt.Sprintf("%s.%d", l.subnet, l.nextIP))}
	l.nodes[strings.ToLower(h.Name)] = n
	l.sortedHosts, l.sortedNames = nil, nil
	l.mAttach.Inc()
	return n
}

// Node returns the attachment record for a host name, or nil. Names match
// case-insensitively, as strings.ToLower folds them. An ASCII name is
// lower-cased into a stack buffer, and indexing with the converted bytes
// does not allocate.
func (l *LAN) Node(name string) *Node {
	var buf [64]byte
	return l.nodes[string(host.AppendLower(buf[:0], name))]
}

// HostCount returns the number of attached hosts.
func (l *LAN) HostCount() int { return len(l.nodes) }

// hostsSorted returns the cached name-sorted host slice, rebuilding it
// after an Attach. Callers must not mutate or retain the result.
func (l *LAN) hostsSorted() []*host.Host {
	if l.sortedHosts == nil {
		l.sortedHosts = make([]*host.Host, 0, len(l.nodes))
		for _, n := range l.nodes {
			l.sortedHosts = append(l.sortedHosts, n.Host)
		}
		sort.Slice(l.sortedHosts, func(i, j int) bool {
			return l.sortedHosts[i].Name < l.sortedHosts[j].Name
		})
	}
	return l.sortedHosts
}

// Hosts returns all attached hosts sorted by name. The slice is the
// caller's to keep.
func (l *LAN) Hosts() []*host.Host {
	return append([]*host.Host(nil), l.hostsSorted()...)
}

// Peers returns all attached hosts except the named one, sorted by name.
// The returned slice is a scratch buffer owned by the LAN and reused by
// the next Peers call: iterate it immediately, do not retain it across
// Peers or Attach calls.
func (l *LAN) Peers(name string) []*host.Host {
	l.peersBuf = l.peersBuf[:0]
	for _, h := range l.hostsSorted() {
		if !strings.EqualFold(h.Name, name) {
			l.peersBuf = append(l.peersBuf, h)
		}
	}
	return l.peersBuf
}

// PeerAt returns the i'th peer (modulo the peer count) of the named host
// in name-sorted order — the same host Peers(name)[i%len] would yield —
// without materializing the peer slice. High-frequency round-robin
// callers (the user-activity layer picks one share/maintenance target
// per action across fleet-scale LANs) use this to stay O(log n) per
// pick instead of O(n). The name must match the attached spelling
// exactly; returns nil when the host has no peers.
func (l *LAN) PeerAt(name string, i int) *host.Host {
	hs := l.hostsSorted()
	self := sort.Search(len(hs), func(j int) bool { return hs[j].Name >= name })
	if self < len(hs) && hs[self].Name == name {
		n := len(hs) - 1
		if n <= 0 || i < 0 {
			return nil
		}
		j := i % n
		if j >= self {
			j++
		}
		return hs[j]
	}
	if len(hs) == 0 || i < 0 {
		return nil
	}
	return hs[i%len(hs)]
}

// --- HTTP through the LAN (honouring proxy settings) ---

// HTTP issues an HTTP request from a host. If the host has a ProxyHost
// configured (e.g. after a WPAD hijack), the request is offered to the
// proxy node's handler first; a non-nil reply from the proxy is a
// man-in-the-middle response. Otherwise the request needs internet
// connectivity and an uplink.
func (l *LAN) HTTP(from *host.Host, req *Request) (*Response, error) {
	req.Source = from.Name
	if from.Down {
		return nil, fmt.Errorf("%w: %s", host.ErrHostDown, from.Name)
	}
	if l.dropped("http", from.Name) {
		return nil, fmt.Errorf("%w: %s -> %s", ErrPacketLoss, from.Name, req.Host)
	}
	if from.ProxyHost != "" {
		if proxy := l.Node(from.ProxyHost); proxy != nil && proxy.Proxy != nil && !proxy.Host.Down {
			l.mProxied.Inc()
			l.K.Trace().Emit(l.K.Now(), sim.CatNetwork, from.Name,
				fmt.Sprintf("proxied via %s: %s http://%s%s", from.ProxyHost, req.Method, req.Host, req.Path),
				obs.T("proxy", from.ProxyHost), obs.T("dest", req.Host))
			if resp := proxy.Proxy(req); resp != nil {
				return resp, nil
			}
		}
	}
	if !from.Internet {
		return nil, fmt.Errorf("%w: %s", ErrNoInternet, from.Name)
	}
	if l.Uplink == nil {
		return nil, fmt.Errorf("%w: LAN %s is air-gapped", ErrNoInternet, l.Name)
	}
	return l.Uplink.Dispatch(req)
}

// --- WPAD (NetBIOS proxy auto-discovery) ---

// WPADQuery models a browser broadcasting for wpad.dat on the local
// segment: with no DNS WPAD record, NetBIOS lets *any* machine answer, so
// the first responder wins (paper, Fig. 2 and footnote 6). It returns the
// proxy host name to configure, if any node answered.
func (l *LAN) WPADQuery(from *host.Host) (string, bool) {
	for _, name := range l.sortedNodeNames() {
		n := l.nodes[name]
		if n.Host == from || n.WPADResponder == nil || n.Host.Down {
			continue
		}
		if proxyHost, ok := n.WPADResponder(from); ok {
			l.mWPAD.Inc()
			l.K.Trace().Emit(l.K.Now(), sim.CatNetwork, from.Name,
				fmt.Sprintf("WPAD answered by %s -> proxy %s", n.Host.Name, proxyHost),
				obs.T("responder", n.Host.Name), obs.T("proxy", proxyHost))
			return proxyHost, true
		}
	}
	return "", false
}

// BrowserLaunch models a user opening the browser: the browser performs
// proxy auto-discovery and adopts whatever configuration it is handed.
func (l *LAN) BrowserLaunch(h *host.Host) {
	if proxy, ok := l.WPADQuery(h); ok {
		h.ProxyHost = proxy
	}
}

// ErrStaticARP is returned when the target pins its ARP table.
var ErrStaticARP = errors.New("netsim: target uses static ARP entries")

// ARPPoison mounts the alternative MITM the paper's footnote 6 names:
// gratuitous ARP replies redirect the victim's traffic through the
// attacker immediately — no browser launch or WPAD broadcast needed. It
// fails against hosts with pinned ARP tables.
func (l *LAN) ARPPoison(attacker *host.Host, victim string) error {
	n := l.Node(victim)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchHost, victim)
	}
	if n.StaticARP {
		return fmt.Errorf("%w: %s", ErrStaticARP, victim)
	}
	n.Host.ProxyHost = attacker.Name
	l.mARP.Inc()
	l.K.Trace().Emit(l.K.Now(), sim.CatNetwork, attacker.Name,
		fmt.Sprintf("arp poisoned %s: traffic redirected", victim),
		obs.T("victim", victim))
	return nil
}

func (l *LAN) sortedNodeNames() []string {
	if l.sortedNames == nil {
		l.sortedNames = make([]string, 0, len(l.nodes))
		for name := range l.nodes {
			l.sortedNames = append(l.sortedNames, name)
		}
		sort.Strings(l.sortedNames)
	}
	return l.sortedNames
}

// --- SMB file & print sharing ---

// SMB errors.
var (
	ErrShareClosed = errors.New("netsim: target has file and print sharing off")
	ErrNoSuchHost  = errors.New("netsim: no such host on LAN")
)

// ShareAccessible models the open/close probe Shamoon performs before
// copying itself: it succeeds when the target exposes open shares.
func (l *LAN) ShareAccessible(from *host.Host, target string) bool {
	if from.Down {
		return false
	}
	n := l.Node(target)
	if n == nil || !n.Host.SharesOpen || n.Host.Down {
		return false
	}
	return !l.dropped("smb-probe", from.Name)
}

// CopyToShare writes data into the target's filesystem over SMB. The
// target's file aliases data without copying, so the caller must not
// mutate the buffer afterwards — spread loops hand the same marshalled
// image to thousands of peers, and one copy per peer was a dominant term
// in fleet-scale memory (DESIGN.md §9). Mutation on the receiving host
// goes through the filesystem's copy-on-write path.
func (l *LAN) CopyToShare(from *host.Host, target, remotePath string, data []byte) error {
	if from.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, from.Name)
	}
	n := l.Node(target)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchHost, target)
	}
	if n.Host.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, target)
	}
	if !n.Host.SharesOpen {
		return fmt.Errorf("%w: %s", ErrShareClosed, target)
	}
	if l.dropped("smb-copy", from.Name) {
		return fmt.Errorf("%w: smb copy to %s", ErrPacketLoss, target)
	}
	l.mSMBCopy.Inc()
	if tr := l.K.Trace(); tr.Live() {
		tr.Emit(l.K.Now(), sim.CatSpread, from.Name,
			fmt.Sprintf("smb copy to \\\\%s%s (%d bytes)", target, remotePath, len(data)),
			obs.T("target", target), obs.Ti("bytes", int64(len(data))))
	}
	return n.Host.FS.WriteShared(remotePath, data, 0, l.K.Now())
}

// RDPLogin models a credentialed remote-desktop session from one host to
// another — the lateral-movement step the CNI intrusions used with stolen
// accounts. It performs no execution itself; what it leaves behind is the
// Event-1149 analog in the trace, the telemetry detection rules burst on.
func (l *LAN) RDPLogin(from *host.Host, target, user string) error {
	if from.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, from.Name)
	}
	n := l.Node(target)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchHost, target)
	}
	if n.Host.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, target)
	}
	if l.dropped("rdp", from.Name) {
		return fmt.Errorf("%w: rdp to %s", ErrPacketLoss, target)
	}
	l.mRDP.Inc()
	l.K.Trace().Emit(l.K.Now(), sim.CatNetwork, from.Name,
		fmt.Sprintf("rdp login to %s as %s", target, user),
		obs.T("target", target), obs.T("user", user))
	return nil
}

// RemoteExec launches an executable already present on the target (the
// psexec step of Shamoon's spread). It requires open shares.
func (l *LAN) RemoteExec(from *host.Host, target, remotePath string) error {
	if from.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, from.Name)
	}
	n := l.Node(target)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchHost, target)
	}
	if n.Host.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, target)
	}
	if !n.Host.SharesOpen {
		return fmt.Errorf("%w: %s", ErrShareClosed, target)
	}
	if l.dropped("psexec", from.Name) {
		return fmt.Errorf("%w: psexec on %s", ErrPacketLoss, target)
	}
	l.mPsexec.Inc()
	if tr := l.K.Trace(); tr.Live() {
		tr.Emit(l.K.Now(), sim.CatSpread, from.Name,
			fmt.Sprintf("psexec \\\\%s %s", target, remotePath),
			obs.T("target", target))
	}
	var err error
	l.K.WithCause(sim.Cause{Span: l.K.Cause().Span, Vector: "psexec"}, func() {
		_, err = n.Host.ExecuteFile(remotePath, true)
	})
	return err
}

// --- Print spooler (MS10-061) ---

// MS10_061 is the print-spooler impersonation bulletin gate.
const MS10_061 = "MS10-061"

// spooler file names from the paper's Stuxnet dissection (Section II-A).
const (
	spoolerMOF     = host.SystemDir + `\wbem\mof\sysnullevnt.mof`
	spoolerDropper = host.SystemDir + `\winsta.exe`
)

// SpoolerExploit mounts the MS10-061 attack: a crafted print request that
// writes two "documents" into the target's %system% directory — a MOF file
// and a dropper — after which MOF event processing launches the dropper.
// It fails when the target has sharing off or the bulletin installed.
func (l *LAN) SpoolerExploit(from *host.Host, target string, dropper *pe.File) error {
	if from.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, from.Name)
	}
	n := l.Node(target)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchHost, target)
	}
	t := n.Host
	if t.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, target)
	}
	if !t.SharesOpen {
		return fmt.Errorf("%w: %s", ErrShareClosed, target)
	}
	if t.Patched(MS10_061) {
		return fmt.Errorf("netsim: %s rejected crafted print request (%s installed)", target, MS10_061)
	}
	if l.dropped("spooler", from.Name) {
		return fmt.Errorf("%w: print job to %s", ErrPacketLoss, target)
	}
	raw, err := dropper.Marshal()
	if err != nil {
		return fmt.Errorf("spooler exploit: %w", err)
	}
	if err := t.FS.Write(spoolerMOF, []byte("#pragma autorecover\ninstance of __EventFilter ..."), 0, l.K.Now()); err != nil {
		return err
	}
	if err := t.FS.Write(spoolerDropper, raw, host.AttrHidden, l.K.Now()); err != nil {
		return err
	}
	l.mSpooler.Inc()
	l.K.Trace().Emit(l.K.Now(), sim.CatExploit, from.Name,
		fmt.Sprintf("%s: spooler wrote %s on %s", MS10_061, spoolerDropper, target),
		obs.T("bulletin", MS10_061), obs.T("target", target))
	// MOF compilation registers the event consumer which launches the
	// dropper shortly after. The schedule is wrapped in a spooler-vector
	// cause so the infection the dropper produces attributes to the
	// attacking episode across the timer hop.
	// An impaired segment's Latency delays the store-and-forward hop.
	l.K.WithCause(sim.Cause{Span: l.K.Cause().Span, Vector: "spooler"}, func() {
		l.K.Schedule(l.impair.Latency, "mof:"+target, func() {
			if _, err := t.ExecuteFile(spoolerDropper, true); err != nil {
				t.Logf(sim.CatExec, "wmi", "mof-launched dropper failed: %v", err)
			}
		})
	})
	return nil
}

// LinkOK models one peer-to-peer datagram on the segment: both endpoints
// must be up and the exchange must survive the impairment draw. Stuxnet's
// P2P update path probes it before syncing from a peer.
func (l *LAN) LinkOK(from, to *host.Host) error {
	if from.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, from.Name)
	}
	if to.Down {
		return fmt.Errorf("%w: %s", host.ErrHostDown, to.Name)
	}
	if l.dropped("p2p", from.Name) {
		return fmt.Errorf("%w: %s -> %s", ErrPacketLoss, from.Name, to.Name)
	}
	return nil
}

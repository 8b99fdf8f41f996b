// Package netsim provides the simulated network fabric: an internet with
// DNS and HTTP, LANs with SMB shares, the print-spooler and WPAD broadcast
// behaviours the modelled malware abuses, a Windows Update service, and
// Bluetooth radio spaces.
//
// Requests are synchronous method calls — the paper's claims concern who
// can reach and impersonate whom, not latency — but all activity is
// stamped into the kernel trace at current virtual time, and the
// load-bearing transitions (lan.* exploit traffic, internet.request.*
// volume, wu.update.* outcomes) increment the kernel's obs registry.
package netsim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// IP is a printable address.
type IP string

// Request is a simulated HTTP request.
type Request struct {
	Method string
	Host   string // domain name or literal IP
	Path   string
	Query  map[string]string
	Body   []byte
	// Source identifies the originating machine (set by the fabric).
	Source string
}

// Response is a simulated HTTP response.
//
// OriginSpan/OriginVector are set by malicious responders (Flame's
// fake-update MITM): they attribute whatever the client does with the
// body — typically executing it — to the episode that served it.
type Response struct {
	Status       int
	Body         []byte
	OriginSpan   obs.Span
	OriginVector string
}

// OK wraps body in a 200 response.
func OK(body []byte) *Response { return &Response{Status: 200, Body: body} }

// NotFound is a 404 response.
func NotFound() *Response { return &Response{Status: 404} }

// Handler serves simulated HTTP.
type Handler interface {
	ServeSim(req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Response

// ServeSim implements Handler.
func (f HandlerFunc) ServeSim(req *Request) *Response { return f(req) }

// Errors surfaced by the fabric.
var (
	ErrNXDomain     = errors.New("netsim: domain does not resolve")
	ErrNoInternet   = errors.New("netsim: host has no internet connectivity")
	ErrNoSuchServer = errors.New("netsim: no server at address")
)

// Internet is the global name and server registry.
type Internet struct {
	K       *sim.Kernel
	dns     map[string]IP
	servers map[IP]Handler
	// catchAll, when set, resolves every unknown name — the sandbox
	// sinkhole configuration (INetSim-style).
	catchAll IP
	// faults remembers adversity-engine interventions per domain so
	// Restore can undo them and clients can attribute fallback behaviour
	// to the intervention's causal span.
	faults map[string]*domainFault

	mDispatch *obs.Counter
	hBytes    *obs.Histogram
	mErr      *obs.Counter
	mErrNX    *obs.Counter
	mErrNoSrv *obs.Counter
}

// domainFault is one live intervention against a domain name.
type domainFault struct {
	prevIP     IP
	registered bool // the name resolved in DNS before the fault
	mode       string
	span       obs.Span
}

// SetCatchAll makes every unknown name resolve to ip (empty disables).
func (in *Internet) SetCatchAll(ip IP) { in.catchAll = ip }

// NewInternet returns an empty internet.
func NewInternet(k *sim.Kernel) *Internet {
	return &Internet{
		K:         k,
		dns:       make(map[string]IP),
		servers:   make(map[IP]Handler),
		faults:    make(map[string]*domainFault),
		mDispatch: k.Metrics().Counter("internet.request.dispatch"),
		hBytes:    k.Metrics().Histogram("internet.request.bytes", obs.ByteBuckets),
		mErr:      k.Metrics().Counter("net.dispatch.err"),
		mErrNX:    k.Metrics().Counter("net.dispatch.err.nxdomain"),
		mErrNoSrv: k.Metrics().Counter("net.dispatch.err.noserver"),
	}
}

// RegisterDomain points name at ip.
func (in *Internet) RegisterDomain(name string, ip IP) {
	in.dns[name] = ip
}

// UnregisterDomain removes a name (domain takedown / suicide cleanup).
func (in *Internet) UnregisterDomain(name string) {
	delete(in.dns, name)
}

// Resolve looks up a name. Literal IPs resolve to themselves when a server
// is bound there.
func (in *Internet) Resolve(name string) (IP, bool) {
	if ip, ok := in.dns[name]; ok {
		return ip, true
	}
	if _, ok := in.servers[IP(name)]; ok {
		return IP(name), true
	}
	if in.catchAll != "" {
		return in.catchAll, true
	}
	return "", false
}

// Domains returns all registered domain names, sorted.
func (in *Internet) Domains() []string {
	out := make([]string, 0, len(in.dns))
	for d := range in.dns {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// DistinctServerIPs returns how many distinct IPs the registered domains
// point at — the paper's "80 domains, 22 server IPs" shape.
func (in *Internet) DistinctServerIPs() int {
	seen := make(map[IP]bool, len(in.dns))
	for _, ip := range in.dns {
		seen[ip] = true
	}
	return len(seen)
}

// BindServer attaches a handler at ip.
func (in *Internet) BindServer(ip IP, h Handler) {
	in.servers[ip] = h
}

// Dispatch resolves req.Host and delivers the request to the bound server.
// Failures are counted (net.dispatch.err plus a per-cause counter) so
// takedown windows show up in metrics output, not just as client errors.
func (in *Internet) Dispatch(req *Request) (*Response, error) {
	ip, ok := in.Resolve(req.Host)
	if !ok {
		in.mErr.Inc()
		in.mErrNX.Inc()
		return nil, fmt.Errorf("%w: %s", ErrNXDomain, req.Host)
	}
	srv, ok := in.servers[ip]
	if !ok {
		in.mErr.Inc()
		in.mErrNoSrv.Inc()
		return nil, fmt.Errorf("%w: %s (%s)", ErrNoSuchServer, ip, req.Host)
	}
	in.mDispatch.Inc()
	in.hBytes.Observe(float64(len(req.Body)))
	// A muted, unsubscribed trace records nothing, so the text is built
	// only when someone will read it.
	if tr := in.K.Trace(); tr.Live() {
		tr.Emit(in.K.Now(), sim.CatNetwork, req.Source,
			fmt.Sprintf("%s http://%s%s (%d bytes)", req.Method, req.Host, req.Path, len(req.Body)),
			obs.T("dest", req.Host), obs.Ti("bytes", int64(len(req.Body))))
	}
	return srv.ServeSim(req), nil
}

// --- domain faults (the adversity engine's network substrate) ---

// Takedown removes name from DNS, remembering its previous binding for
// Restore. The span is the causal episode of the intervention: clients
// that fall back because of it attribute their fallback to this span
// (via FaultSpan). Returns false when the name never resolved.
func (in *Internet) Takedown(name string, span obs.Span) bool {
	prev, ok := in.dns[name]
	if !ok {
		return false
	}
	if f := in.faults[name]; f != nil {
		f.mode = "takedown"
		f.span = span
	} else {
		in.faults[name] = &domainFault{prevIP: prev, registered: true, mode: "takedown", span: span}
	}
	delete(in.dns, name)
	return true
}

// SinkholeDomain repoints name at sink — the researcher/registrar
// sinkhole move. Names that were already taken down (expired) are
// re-registered at the sink, matching how real sinkholes claimed dead
// C&C domains. Returns false only when the name was never registered
// and is not under a recorded fault.
func (in *Internet) SinkholeDomain(name string, sink IP, span obs.Span) bool {
	prev, had := in.dns[name]
	f := in.faults[name]
	if !had && f == nil {
		return false
	}
	if f != nil {
		f.mode = "sinkhole"
		f.span = span
	} else {
		in.faults[name] = &domainFault{prevIP: prev, registered: true, mode: "sinkhole", span: span}
	}
	in.dns[name] = sink
	return true
}

// Restore undoes a Takedown/SinkholeDomain, re-binding the original IP.
func (in *Internet) Restore(name string) bool {
	f, ok := in.faults[name]
	if !ok {
		return false
	}
	delete(in.faults, name)
	if f.registered {
		in.dns[name] = f.prevIP
	} else {
		delete(in.dns, name)
	}
	return true
}

// FaultSpan returns the causal span of the live fault on name (zero when
// the name is healthy). Fallback paths use it as their parent cause.
func (in *Internet) FaultSpan(name string) obs.Span {
	if f, ok := in.faults[name]; ok {
		return f.span
	}
	return 0
}

// FaultMode returns "takedown", "sinkhole", or "" for a healthy name.
func (in *Internet) FaultMode(name string) string {
	if f, ok := in.faults[name]; ok {
		return f.mode
	}
	return ""
}

// Reachable reports whether name currently resolves to a live server — the
// connectivity probe Stuxnet performs against windowsupdate.com / msn.com
// before contacting its C&C.
func (in *Internet) Reachable(name string) bool {
	ip, ok := in.Resolve(name)
	if !ok {
		return false
	}
	_, ok = in.servers[ip]
	return ok
}

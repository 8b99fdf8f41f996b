package netsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Partition-aware routing (DESIGN.md §14). A partitioned world runs one
// Internet per shard; a domain whose real server lives in another
// partition is registered here as a *remote* domain: DNS and dispatch
// behave exactly as for a local name (takedown/sinkhole faults
// included), but the bound handler hands the request to the forward
// callback — in practice a sim.Partition mailbox Send — and
// acknowledges with a synthetic 200. Delivery to the origin server
// happens at the next epoch boundary, so remote dispatch is
// fire-and-forget: the caller sees the accept, never the origin's
// response body. That matches every cross-partition use in the range
// (wipe reporters, C&C beacons, exfil uploads), which treat any 200 as
// "sent" and ignore the payload.

// RegisterRemoteDomain points name at ip and binds a forwarding server
// there. Every dispatched request is counted on
// internet.request.remote, traced, passed to forward, and acknowledged
// with one empty 200 value, built here, that nothing writes to.
func (in *Internet) RegisterRemoteDomain(name string, ip IP, forward func(*Request)) {
	if forward == nil {
		panic("netsim: RegisterRemoteDomain with nil forward")
	}
	remote := in.K.Metrics().Counter("internet.request.remote")
	accepted := OK(nil)
	in.RegisterDomain(name, ip)
	in.BindServer(ip, HandlerFunc(func(req *Request) *Response {
		remote.Inc()
		if tr := in.K.Trace(); tr.Live() {
			tr.Emit(in.K.Now(), sim.CatNetwork, "internet",
				fmt.Sprintf("queue http://%s%s for cross-partition delivery", req.Host, req.Path),
				obs.T("dest", req.Host))
		}
		forward(req)
		return accepted
	}))
}

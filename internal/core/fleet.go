package core

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/runstats"
)

// AddHosts builds one host per name, in index order on the calling
// goroutine, and attaches each to the LAN and the world. One Fork from
// the kernel stream anchors the call, and host i's RNG is ForkAt(i) of
// that anchor: a pure function of (anchor, i), so a host's randomness
// does not depend on how many hosts came before it or what they drew.
// Every host gets its own clone of the base trust store, then opts.
func (w *World) AddHosts(lan *netsim.LAN, names []string, opts ...host.Option) []*host.Host {
	defer runstats.Phase("fleet-build")()
	anchor := w.K.RNG().Fork()
	hosts := make([]*host.Host, len(names))
	all := append([]host.Option{nil, nil}, opts...)
	for i, name := range names {
		all[0] = host.WithCertStore(w.PKI.BaseStore.Clone())
		all[1] = host.WithRNG(anchor.ForkAt(uint64(i)))
		h := host.New(w.K, name, all...)
		lan.Attach(h)
		w.hosts[h.Name] = lan
		w.Registry.Attach(h)
		hosts[i] = h
	}
	if c := runstats.Active(); c != nil {
		c.AddHosts(len(hosts))
	}
	return hosts
}

// hostNames returns prefix-01 .. prefix-n, the naming of the small fleets.
func hostNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%02d", prefix, i+1)
	}
	return names
}

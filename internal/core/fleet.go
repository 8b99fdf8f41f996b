package core

import (
	"fmt"
	"runtime"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/runstats"
	"repro/internal/sim"
)

// HostSpec describes one host of a sharded fleet build: its name, its
// host options, and an optional worker-side seeding step (documents,
// browser profiles) that touches only the host itself.
type HostSpec struct {
	Name string
	Opts []host.Option
	// Seed runs on the construction worker right after the host is built,
	// before it is attached to anything shared. It must confine itself to
	// the host's own state (FS, RNG, registry) — never the kernel trace,
	// the world, or another host.
	Seed func(h *host.Host) error
}

// AddHostsSharded builds the specs' hosts across a pool of workers and
// attaches them in index order. The result is byte-identical to any other
// worker count — including 1 — because the two sources of construction-
// order sensitivity are removed:
//
//   - randomness: one Fork from the kernel stream anchors the fleet, and
//     host i's RNG is ForkAt(i) of that anchor — a pure function of
//     (anchor, i) that neither advances the parent nor races on it;
//   - shared state: workers only read shared structures (the base trust
//     store, pre-warmed metric handles, the kernel clock); every write —
//     LAN attachment, dispatcher wiring, world bookkeeping, the attach
//     counter — happens in the sequential index-order merge.
//
// workers <= 0 uses GOMAXPROCS. Seeding failures abort with the first
// failing host's error, in index order regardless of which worker hit it.
func (w *World) AddHostsSharded(lan *netsim.LAN, workers int, specs []HostSpec) ([]*host.Host, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	defer runstats.Phase("fleet-build")()
	anchor := w.K.RNG().Fork()
	// Pre-warm the one registry handle host.New fetches, so the parallel
	// phase performs only map reads (obs.Registry writes are not
	// goroutine-safe).
	w.K.Metrics().Counter("host.process.exec")

	hosts := make([]*host.Host, len(specs))
	errs := make([]error, len(specs))
	sim.RunPool(len(specs), workers, func(i int) {
		all := append([]host.Option{
			host.WithCertStore(w.PKI.BaseStore.Clone()),
			host.WithRNG(anchor.ForkAt(uint64(i))),
		}, specs[i].Opts...)
		h := host.New(w.K, specs[i].Name, all...)
		if specs[i].Seed != nil {
			errs[i] = specs[i].Seed(h)
		}
		hosts[i] = h
	})

	for i, h := range hosts {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: build host %s: %w", specs[i].Name, errs[i])
		}
		lan.Attach(h)
		w.hosts[h.Name] = lan
		w.extra[h.Name] = make(map[string]any)
		w.Registry.Attach(h)
	}
	if c := runstats.Active(); c != nil {
		c.AddHosts(len(hosts))
	}
	return hosts, nil
}

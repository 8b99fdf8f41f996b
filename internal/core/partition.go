package core

// The world partitioner (DESIGN.md §14). A partitioned experiment
// shards its fleet by site: every site is a complete, isolated World —
// own kernel, RNG stream, internet, LAN, malware build — coupled into
// one campaign through a sim.PartitionSet's epoch-boundary mailboxes.
// The site layout (count, sizes, seeds, epoch width) is part of the
// scenario, like a seed; the -partitions flag only sizes the worker
// pool that builds the sites and then advances them, so any worker
// count produces byte-identical reports, traces, metrics and alerts.
// A site's state is touched by one goroutine at a time; only whole
// sites run side by side.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/malware/shamoon"
	"repro/internal/netsim"
	"repro/internal/runstats"
	"repro/internal/sim"
	"repro/internal/users"
)

// The C7 site layout: six sites (headquarters plus five regional
// offices) exchanging mail every 15 simulated minutes, with the hub
// couriering the infection to the other sites an hour after the world
// starts (delivery lands at the next epoch boundary). The constants are
// scenario state — changing any changes the simulated world.
const (
	aramcoSiteCount  = 6
	aramcoEpoch      = 15 * time.Minute
	aramcoCarryAfter = time.Hour
)

// Cross-partition message kinds of the Aramco campaign.
const (
	aramcoCarryKind  = "shamoon-carry"  // inter-site infection courier
	aramcoReportKind = "shamoon-report" // wipe reports homed at the hub
)

// AramcoFleetOptions shape a partitioned multi-site Aramco world.
type AramcoFleetOptions struct {
	Workstations int // total fleet, split across sites (default 600)
	Sites        int // default aramcoSiteCount
	// The per-site knobs below pass through to every site's
	// AramcoOptions.
	DocsPerHost int
	SpreadEvery time.Duration
	LeanImages  bool
	EagerDocs   bool
	Activity    users.Mix
	MuteTrace   bool
	// Workers overrides the Env's partition width for this fleet (<= 0
	// defers to it): the number of goroutines that build the sites and
	// then advance them. Any value is byte-equivalent.
	Workers int
	// Env is the run environment every site world is built under (nil
	// is the zero Env): each site kernel joins its experiment scope, so
	// a stall watchdog, deadline or shutdown cancels every partition.
	Env *Env
}

// AramcoFleet is a partitioned multi-site Aramco world: Sites[0] is the
// headquarters hub — patient zero lands there and the wipe-reporter
// domain is homed there — and every other site starts clean, ignited by
// a cross-partition carry.
type AramcoFleet struct {
	Set     *sim.PartitionSet
	Sites   []*AramcoScenario
	workers int
}

// BuildAramcoFleet assembles the partitioned world.
func BuildAramcoFleet(seed uint64, opts AramcoFleetOptions) (*AramcoFleet, error) {
	if opts.Workstations <= 0 {
		opts.Workstations = 600
	}
	if opts.Sites <= 0 {
		opts.Sites = aramcoSiteCount
	}
	if opts.Sites > opts.Workstations {
		opts.Sites = opts.Workstations
	}
	workers := opts.Workers
	if workers <= 0 && opts.Env != nil {
		workers = opts.Env.Partitions
	}
	start := shamoon.AramcoTrigger.Add(-24 * time.Hour)
	f := &AramcoFleet{Set: sim.NewPartitionSet(aramcoEpoch), workers: workers}

	// Site seeds are independent forks of one anchor, and sites share no
	// state, so the whole fleet is a pure function of (seed, layout) —
	// not of which worker builds which site, or in what order.
	anchor := sim.NewRNG(seed)
	base := opts.Workstations / opts.Sites
	extra := opts.Workstations % opts.Sites
	f.Sites = make([]*AramcoScenario, opts.Sites)
	errs := make([]error, opts.Sites)
	sim.RunPool(opts.Sites, workers, func(i int) {
		// The first `extra` sites hold one host more than the rest.
		size, first := base, i*base+min(i, extra)
		if i < extra {
			size++
		}
		w, err := NewWorld(WorldConfig{
			Env:       opts.Env,
			Seed:      anchor.ForkAt(uint64(i)).State(),
			Start:     start,
			MuteTrace: opts.MuteTrace,
		})
		if err != nil {
			errs[i] = err
			return
		}
		siteOpts := AramcoOptions{
			Workstations: size,
			DocsPerHost:  opts.DocsPerHost,
			SpreadEvery:  opts.SpreadEvery,
			LeanImages:   opts.LeanImages,
			EagerDocs:    opts.EagerDocs,
			Activity:     opts.Activity,
			LANName:      fmt.Sprintf("aramco-site-%02d", i+1),
			Subnet:       fmt.Sprintf("10.%d.0", 30+i),
			FirstIndex:   first,
			NoPatient0:   i > 0,
		}
		if i > 0 {
			siteOpts.ReporterForward = func(req *netsim.Request) { f.Set.Partition(i).Send(0, aramcoReportKind, req) }
		}
		f.Sites[i], errs[i] = BuildAramco(w, siteOpts)
	})
	for i, sc := range f.Sites {
		if errs[i] != nil {
			return nil, errs[i]
		}
		f.Set.Add(sc.World.K)
	}

	// Mailbox handlers. The hub re-dispatches forwarded wipe reports
	// through its own internet, so they land on the real reporter server
	// with normal counters and trace records; a dispatch failure (e.g. a
	// fault took the domain down hub-side) drops the report, exactly as
	// a dead domain drops a direct one.
	hub := f.Sites[0]
	f.Set.Partition(0).OnDeliver(func(m sim.Message) {
		switch m.Kind {
		case aramcoReportKind:
			req, ok := m.Payload.(*netsim.Request)
			if !ok {
				panic(fmt.Sprintf("core: %s payload is %T, want *netsim.Request", m.Kind, m.Payload))
			}
			_, _ = hub.World.Internet.Dispatch(req)
		default:
			panic(fmt.Sprintf("core: hub received unknown partition message %q", m.Kind))
		}
	})
	for i := 1; i < len(f.Sites); i++ {
		sc := f.Sites[i]
		f.Set.Partition(i).OnDeliver(func(m sim.Message) {
			switch m.Kind {
			case aramcoCarryKind:
				if err := sc.Infect(); err != nil {
					panic(err)
				}
			default:
				panic(fmt.Sprintf("core: site received unknown partition message %q", m.Kind))
			}
		})
	}
	if len(f.Sites) > 1 {
		hubPart := f.Set.Partition(0)
		sites := len(f.Sites)
		hub.World.K.Schedule(aramcoCarryAfter, "aramco-carry-courier", func() {
			for j := 1; j < sites; j++ {
				hubPart.Send(j, aramcoCarryKind, nil)
			}
		})
	}
	if c := runstats.Active(); c != nil {
		c.SetPartitions(len(f.Sites))
	}
	return f, nil
}

// RunUntil advances the whole fleet to the deadline and feeds the
// per-partition wall/step shares to the telemetry collector. The error
// is always nil; the result stays only because the benchmark module
// checks it.
func (f *AramcoFleet) RunUntil(deadline time.Time) error {
	f.Set.RunUntil(deadline, f.workers)
	if c := runstats.Active(); c != nil {
		for i, st := range f.Set.Stats() {
			c.RecordPartition(i, st.Steps, st.Wall)
		}
	}
	return nil
}

// Kernels returns every site kernel in partition order — the capture
// order CaptureObsMerged anchors span IDs by.
func (f *AramcoFleet) Kernels() []*sim.Kernel {
	ks := make([]*sim.Kernel, len(f.Sites))
	for i, sc := range f.Sites {
		ks[i] = sc.World.K
	}
	return ks
}

// InfectedCount sums infections across sites.
func (f *AramcoFleet) InfectedCount() int {
	n := 0
	for _, sc := range f.Sites {
		n += sc.Shamoon.InfectedCount()
	}
	return n
}

// WipedCount sums unbootable wiped hosts across sites.
func (f *AramcoFleet) WipedCount() int {
	n := 0
	for _, sc := range f.Sites {
		n += sc.WipedCount()
	}
	return n
}

// FleetStats sums the per-site Shamoon campaign counters.
func (f *AramcoFleet) FleetStats() shamoon.Stats {
	var total shamoon.Stats
	for _, sc := range f.Sites {
		st := sc.Shamoon.Stats
		total.InfectedHosts += st.InfectedHosts
		total.SpreadCopies += st.SpreadCopies
		total.WipedHosts += st.WipedHosts
		total.FilesWiped += st.FilesWiped
		total.MBRsOverwritten += st.MBRsOverwritten
		total.ReportsSent += st.ReportsSent
		total.DriverLoadErrors += st.DriverLoadErrors
	}
	return total
}

// Reports returns the wipe reports that reached the hub's reporter
// server — the hub site's directly plus every satellite's via the
// epoch mailboxes.
func (f *AramcoFleet) Reports() []*netsim.Request { return f.Sites[0].Reports }

// C7Options is the registry C7 layout at a given fleet size: the six
// sites, two lean documents per host, a two-hour spread cadence, and a
// silent, muted fleet. Benches and tests derive their variants from it
// (a populated fleet, a retained trace, a fixed worker width) so every
// C7 run shares one builder.
func C7Options(hosts int) AramcoFleetOptions {
	return AramcoFleetOptions{
		Workstations: hosts,
		Sites:        aramcoSiteCount,
		DocsPerHost:  2,
		SpreadEvery:  2 * time.Hour,
		LeanImages:   true,
		Activity:     users.MixNone,
		MuteTrace:    true,
	}
}

// RunAramcoFleet is the C7 runner: it builds the partitioned fleet,
// runs it to two hours past the trigger, and scores the wipe. Reports
// are byte-identical across any Workers value and across eager/lazy
// seeding — the properties the partition and seeding determinism tests
// pin.
func RunAramcoFleet(seed uint64, opts AramcoFleetOptions) (*Result, error) {
	f, err := BuildAramcoFleet(seed, opts)
	if err != nil {
		return nil, err
	}
	f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour))

	// Everything wiped exactly at/after the hardcoded instant, on every
	// site — satellites wipe on their own clocks, one LAN apart.
	fleet, wipedBefore := 0, 0
	benignAgents, benignActions := 0, 0
	for _, sc := range f.Sites {
		fleet += len(sc.Hosts)
		for _, h := range sc.Hosts {
			for _, e := range h.EventLog() {
				if strings.Contains(e.Message, "host wiped") && e.At.Before(shamoon.AramcoTrigger) {
					wipedBefore++
				}
			}
		}
		if sc.Users != nil {
			benignAgents += sc.Users.Stats.Agents
			benignActions += sc.Users.Stats.Actions()
		}
	}
	res := &Result{
		ID:    "C7",
		Title: "Aramco-scale destruction",
		Paper: "complete destruction of ~30,000 workstations; trigger August 15, 2012, 08:08 UTC",
	}
	stats := f.FleetStats()
	res.metric("fleet_size", float64(fleet), "hosts")
	res.metric("sites", float64(len(f.Sites)), "sites")
	res.metric("infected", float64(f.InfectedCount()), "hosts")
	res.metric("wiped_unbootable", float64(f.WipedCount()), "hosts")
	res.metric("mbrs_overwritten", float64(stats.MBRsOverwritten), "hosts")
	res.metric("files_overwritten", float64(stats.FilesWiped), "files")
	res.metric("reports_sent", float64(stats.ReportsSent), "reports")
	res.metric("reports_received", float64(len(f.Reports())), "reports")
	res.metric("wiped_before_trigger", float64(wipedBefore), "hosts")
	if benignAgents > 0 {
		res.metric("benign_agents", float64(benignAgents), "agents")
		res.metric("benign_actions", float64(benignActions), "actions")
	}
	res.Pass = f.InfectedCount() == fleet && f.WipedCount() == fleet &&
		wipedBefore == 0 && len(f.Reports()) == fleet
	res.summaryf("%d/%d workstations across %d sites infected and left unbootable; 0 wiped before the hardcoded trigger instant; %d/%d wipe reports reached the hub",
		f.WipedCount(), fleet, len(f.Sites), len(f.Reports()), fleet)
	res.notef("world sharded by site (§14): one kernel per site, cross-site carries and wipe reports ride epoch-boundary mailboxes; output bytes are invariant under -partitions")
	res.CaptureObsMerged(f.Kernels()...)
	return res, nil
}

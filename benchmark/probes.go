package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cnc"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/users"
)

// Probe sizes.
const (
	probeSiteHosts = 5000 // one site of the 30,000-host six-site fleet
	c5EntryBytes   = 3827 // mean cnc.entry.bytes of C5 at seed 1
	probeBatch     = 10 * time.Millisecond
	probeBatches   = 5
)

// runProbes times one operation of each layer on a fixture built from the
// seed: a one-site fleet with enterprise users (so the benign web services
// exist), built but not run. The schedule-and-fire probe runs with
// queueDepth events pending, the traced workload's measured
// sim.max_queue_depth. Each value is the median over batches.
func runProbes(seed uint64, queueDepth int) (map[string]float64, error) {
	out := make(map[string]float64)

	var fleet *core.AramcoFleet
	var builds []float64
	for i := 0; i < 3; i++ {
		fleet = nil // let the previous build go before timing the next
		t0 := time.Now()
		f, err := core.BuildAramcoFleet(seed, core.AramcoFleetOptions{
			Workstations: probeSiteHosts, Sites: 1, DocsPerHost: 2, SpreadEvery: 2 * time.Hour,
			LeanImages: true, Activity: users.MixEnterprise, Workers: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("probe fixture: %w", err)
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e3/probeSiteHosts)
		fleet = f
	}
	out["core.fleet_build_us_per_host"] = median(builds)
	site := fleet.Sites[0]
	h := site.Hosts[len(site.Hosts)/2]

	docs := h.FS.Glob("report-0000")
	if len(docs) == 0 {
		return nil, fmt.Errorf("probe fixture: host %s has no seeded document", h.Name)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Path < docs[j].Path })
	doc := docs[0].Path
	var content []byte
	out["host.fs_read_ns"] = nsPerOp(func() {
		n, err := h.FS.Read(doc)
		if err != nil {
			panic(err)
		}
		content = n.Bytes()
	})
	out["host.fs_write_ns"] = nsPerOp(func() {
		if err := h.FS.Write(doc, content, 0, h.K.Now()); err != nil {
			panic(err)
		}
	})

	drv := site.Shamoon.RawDiskDriver
	if _, err := pki.VerifyImage(drv, h.CertStore, h.K.Now(), pki.UsageDriverSign); err != nil {
		return nil, fmt.Errorf("probe fixture: driver does not verify: %w", err)
	}
	out["pki.verify_image_us"] = nsPerOp(func() {
		_, _ = pki.VerifyImage(drv, h.CertStore, h.K.Now(), pki.UsageDriverSign)
	}) / 1e3

	req := &netsim.Request{Method: "GET", Host: "portal.corp.example", Path: "/", Source: h.Name}
	if _, err := site.World.Internet.Dispatch(req); err != nil {
		return nil, fmt.Errorf("probe fixture: %w", err)
	}
	out["netsim.dispatch_us"] = nsPerOp(func() { _, _ = site.World.Internet.Dispatch(req) }) / 1e3
	peer := 0
	out["netsim.peer_at_ns"] = nsPerOp(func() {
		peer++
		site.LAN.PeerAt(h.Name, peer)
	})

	kp, err := cnc.NewSealKeypair(sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed + 1)
	plain := rng.Bytes(c5EntryBytes)
	var blob []byte
	out["cnc.seal_us"] = nsPerOp(func() {
		if blob, err = cnc.Seal(kp.Public, rng, plain); err != nil {
			panic(err)
		}
	}) / 1e3
	out["cnc.open_us"] = nsPerOp(func() {
		if _, err := kp.Open(blob); err != nil {
			panic(err)
		}
	}) / 1e3

	k := sim.NewKernel(sim.WithSeed(seed))
	for i := 0; i < queueDepth; i++ {
		k.Schedule(1000*time.Hour+time.Duration(i)*time.Second, "probe-fill", func() {})
	}
	out["sim.schedule_fire_ns"] = nsPerOp(func() {
		k.Schedule(time.Millisecond, "probe", func() {})
		k.Step()
	})

	for _, muted := range []bool{false, true} {
		tr := sim.NewTrace(1 << 14)
		tr.SetMuted(muted)
		at := sim.Epoch
		name := "obs.emit_live_ns"
		if muted {
			name = "obs.emit_muted_ns"
		}
		out[name] = nsPerOp(func() {
			tr.Emit(at, sim.CatNetwork, "WS-00001", "GET http://portal.corp.example/ (0 bytes)",
				obs.T("dest", "portal.corp.example"), obs.Ti("bytes", 0))
		})
	}
	return out, nil
}

// nsPerOp times op in batches of at least probeBatch and returns the
// median nanoseconds per call.
func nsPerOp(op func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t0) >= probeBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

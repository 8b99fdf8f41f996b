package core

import (
	"fmt"
	"time"

	"repro/internal/cnc"
	"repro/internal/host"
	"repro/internal/malware/flame"
	"repro/internal/netsim"
)

// RunE4Sinkhole reproduces the end of Section III-B: after the suicide
// command, analyzed samples showed Flame (CLIENT_TYPE_FL) was "only one
// out of four types of infected clients" — CLIENT_TYPE_SP, SPE and IP kept
// operating, "indicating the attackers can deploy new variants anytime".
// Analysts learned this by sinkholing the C&C domains and watching who
// kept checking in; this experiment performs that census.
func RunE4Sinkhole(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	lan := w.NewLAN("region", "10.70.0", false)
	center, err := cnc.NewAttackCenter(w.K, w.Internet, 20, 4)
	if err != nil {
		return nil, err
	}

	// Four variant campaigns from the same factory, one per client type.
	types := []cnc.ClientType{cnc.ClientFL, cnc.ClientSP, cnc.ClientSPE, cnc.ClientIP}
	variants := make(map[cnc.ClientType]*flame.Flame, len(types))
	for i, ct := range types {
		v, err := flame.Build(w.K, flame.Config{
			Center: center, ClientType: ct, BeaconEvery: 2 * time.Hour,
		})
		if err != nil {
			return nil, err
		}
		v.BindTo(w.Registry)
		variants[ct] = v
		for j := 0; j < 3; j++ {
			h := w.AddHost(lan, fmt.Sprintf("V%d-HOST-%d", i+1, j+1), host.WithInternet(true))
			if _, err := h.Execute(v.MainImage, true); err != nil {
				return nil, err
			}
		}
	}
	if err := w.K.RunFor(12 * time.Hour); err != nil {
		return nil, err
	}

	// Disclosure: the FL operator sends its clients the suicide command.
	variants[cnc.ClientFL].PushSuicideAll()
	if err := w.K.RunFor(6 * time.Hour); err != nil {
		return nil, err
	}
	flAliveAfterSuicide := variants[cnc.ClientFL].InfectedCount()

	// The research sinkhole: every attacker domain is re-pointed at the
	// analysts' server, which records who still checks in.
	checkins := map[string]int{}
	sinkhole := netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		if req.Path == cnc.ClientPath {
			checkins[req.Query["type"]]++
			// Answer with an empty package list so clients keep polling.
			return netsim.OK(emptyPackages())
		}
		return netsim.OK(nil)
	})
	for _, reg := range center.Pool.Registrations {
		w.Internet.UnregisterDomain(reg.Domain)
		w.Internet.RegisterDomain(reg.Domain, "198.51.100.250")
	}
	w.Internet.BindServer("198.51.100.250", sinkhole)
	if err := w.K.RunFor(48 * time.Hour); err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "E4",
		Title: "Sinkhole census: four client types, only FL suicided",
		Paper: "\"Flame clients (CLIENT_TYPE_FL) constitute only one out of four types of infected clients\"; the others stayed active",
	}
	res.metric("client_types_deployed", float64(len(types)), "types")
	res.metric("fl_agents_alive_after_suicide", float64(flAliveAfterSuicide), "agents")
	res.metric("sinkhole_checkins_fl", float64(checkins[string(cnc.ClientFL)]), "checkins")
	res.metric("sinkhole_checkins_sp", float64(checkins[string(cnc.ClientSP)]), "checkins")
	res.metric("sinkhole_checkins_spe", float64(checkins[string(cnc.ClientSPE)]), "checkins")
	res.metric("sinkhole_checkins_ip", float64(checkins[string(cnc.ClientIP)]), "checkins")
	survivorsActive := checkins[string(cnc.ClientSP)] > 0 &&
		checkins[string(cnc.ClientSPE)] > 0 &&
		checkins[string(cnc.ClientIP)] > 0
	res.metric("surviving_types", boolMetric(survivorsActive)*3, "types")
	res.Pass = flAliveAfterSuicide == 0 && checkins[string(cnc.ClientFL)] == 0 && survivorsActive
	res.summaryf("after the FL suicide 0 FL check-ins reach the sinkhole while SP/SPE/IP keep polling (%d/%d/%d check-ins)",
		checkins[string(cnc.ClientSP)], checkins[string(cnc.ClientSPE)], checkins[string(cnc.ClientIP)])
	res.notef("after the FL suicide, the sinkhole still sees SP/SPE/IP check-ins — the factory retains a foothold")
	res.CaptureObs(w.K)
	return res, nil
}

// emptyPackages is a valid GET_NEWS body carrying zero packages.
func emptyPackages() []byte { return []byte{0, 0, 0, 0} }

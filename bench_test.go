package repro

// The benchmark harness: one benchmark per paper artefact (Figures 1-6,
// claims C1-C11, the Section-V taxonomy T1, ablations A1-A3, extensions
// E1-E4, the resilience series R1-R5 and the detection series D1-D5).
// Each bench
// regenerates its experiment end to end and reports the headline paper
// metric(s) via b.ReportMetric, so
//
//	go test -bench=. -benchmem .
//
// prints the reproduction table alongside cost. Every run is deterministic
// for a fixed seed.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/users"
)

// benchExperiment runs one registered experiment per iteration and reports
// the named metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	runner, ok := core.LookupExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := runner(nil, uint64(1+i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !res.Pass {
			b.Fatalf("%s did not reproduce:\n%s", id, res.Render())
		}
		last = res
	}
	for _, m := range metrics {
		if v, ok := last.Metric(m); ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- The full campaign sweep, sequential vs worker pool ---

func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, rep := range core.RunExperiments(core.ExperimentIDs(), 1, workers) {
			if rep.Err != nil {
				b.Fatalf("%s: %v", rep.ID, rep.Err)
			}
			if !rep.Result.Pass {
				b.Fatalf("%s did not reproduce:\n%s", rep.ID, rep.Result.Render())
			}
		}
	}
}

// BenchmarkRunAllSequential is the pre-pool baseline: all 35 experiments
// on one goroutine. Compare with BenchmarkRunAllParallel on a multi-core
// box; on a single hardware thread the two are equivalent by design.
func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel fans the 35 experiments out across GOMAXPROCS
// workers. Each experiment owns an independent world, so wall clock
// approaches the heaviest single experiment (C7) as cores are added.
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, runtime.GOMAXPROCS(0)) }

// --- Figures ---

func BenchmarkFig1StuxnetOperation(b *testing.B) {
	benchExperiment(b, "F1", "centrifuges_destroyed", "zero_days_armed")
}

func BenchmarkFig2WPADMitm(b *testing.B) {
	benchExperiment(b, "F2", "victims_proxied_via_wpad", "infected_via_fake_update")
}

func BenchmarkFig3CertForging(b *testing.B) {
	benchExperiment(b, "F3", "weak_hash_collision_found", "post_advisory_rejected")
}

func BenchmarkFig4CnCPlatform(b *testing.B) {
	benchExperiment(b, "F4", "registered_domains", "distinct_server_ips", "domains_after_first_contact")
}

func BenchmarkFig5CnCServer(b *testing.B) {
	benchExperiment(b, "F5", "coordinator_decrypted", "operator_decrypt_blocked")
}

func BenchmarkFig6ShamoonComponents(b *testing.B) {
	benchExperiment(b, "F6", "encrypted_resources", "xor_keys_recovered", "main_image_bytes")
}

// --- Claims ---

func BenchmarkClaimC1ZeroDays(b *testing.B) {
	benchExperiment(b, "C1", "distinct_zero_days")
}

func BenchmarkClaimC2Centrifuge(b *testing.B) {
	benchExperiment(b, "C2", "attack_destroyed", "control_week_destroyed")
}

func BenchmarkClaimC3Targeting(b *testing.B) {
	benchExperiment(b, "C3", "natanz-match_destroyed", "wrong-vendors_destroyed", "no-profibus_destroyed")
}

func BenchmarkClaimC4FlameSize(b *testing.B) {
	benchExperiment(b, "C4", "bare_bytes", "deployed_bytes")
}

func BenchmarkClaimC5ExfilVolume(b *testing.B) {
	benchExperiment(b, "C5", "total_stolen_bytes_week", "documents_stolen")
}

func BenchmarkClaimC6Suicide(b *testing.B) {
	benchExperiment(b, "C6", "artefacts_before", "artefacts_after")
}

// reportNsPerHostEvent divides the bench's wall clock by the fired
// kernel events accumulated across its iterations and reports the
// quotient as ns/host-event — the fleet-scale unit cost BENCH_C7.json
// gates (a wall-clock metric, so it rides in the benchmark stream, never
// in the drift-gated artefacts; see DESIGN.md §12).
func reportNsPerHostEvent(b *testing.B, events float64) {
	b.Helper()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/host-event")
	}
}

// BenchmarkClaimC7AramcoScale runs a 100,000-workstation fleet sharded
// across the six-site partitioned world (DESIGN.md §14) — the
// repository's heaviest workload: ~1.9 GB and ten seconds to a minute
// of wall clock per iteration, depending on the machine (BENCH_C7.json
// records the latest run). The registry C7 stays at the paper's 30,000
// hosts; the bench proves the partitioned kernel holds the unit cost an
// order of magnitude past it.
func BenchmarkClaimC7AramcoScale(b *testing.B) {
	var events float64
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunAramcoFleet(uint64(1+i), core.C7Options(100000))
		if err != nil {
			b.Fatalf("C7: %v", err)
		}
		if !res.Pass {
			b.Fatalf("C7 did not reproduce:\n%s", res.Render())
		}
		events += res.Obs.Counters["sim.event.execute"]
		last = res
	}
	for _, m := range []string{"fleet_size", "wiped_unbootable"} {
		if v, ok := last.Metric(m); ok {
			b.ReportMetric(v, m)
		}
	}
	reportNsPerHostEvent(b, events)
}

// benchC7Partitioned is the 8,000-host six-site slice the ci.sh bench
// lane runs at a fixed partition worker width. The Partitioned1 vs
// Partitioned4 pair in BENCH_C7.json makes the §14 overhead bound
// machine-checkable: identical world, identical bytes, only the worker
// pool differs. The pool both builds the sites and advances them, so
// the ns/host-event gap covers the concurrent site build as well as the
// epoch-barrier and mailbox cost (on a single hardware thread the pair
// is equivalent by design; on a multi-core box Partitioned4 pulls
// ahead).
func benchC7Partitioned(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	var events float64
	var last *core.Result
	opts := core.C7Options(8000)
	opts.Workers = workers
	for i := 0; i < b.N; i++ {
		res, err := core.RunAramcoFleet(uint64(1+i), opts)
		if err != nil {
			b.Fatalf("C7 partitioned: %v", err)
		}
		if !res.Pass {
			b.Fatalf("C7 partitioned did not reproduce:\n%s", res.Render())
		}
		events += res.Obs.Counters["sim.event.execute"]
		last = res
	}
	if v, ok := last.Metric("fleet_size"); ok {
		b.ReportMetric(v, "fleet_size")
	}
	reportNsPerHostEvent(b, events)
}

func BenchmarkClaimC7Partitioned1(b *testing.B) { benchC7Partitioned(b, 1) }

func BenchmarkClaimC7Partitioned4(b *testing.B) { benchC7Partitioned(b, 4) }

// BenchmarkClaimC7Reduced is the 2,000-workstation slice of the registry
// C7 — the same six-site layout — that the ci.sh bench lane runs with
// -benchmem: small enough for CI, large enough that the fleet-scale
// allocation profile (document seeding, image drops, timer churn)
// dominates. BENCH_C7.json records its trajectory, including the
// ns/host-event unit cost.
func BenchmarkClaimC7Reduced(b *testing.B) {
	b.ReportAllocs()
	var events float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunAramcoFleet(uint64(1+i), core.C7Options(2000))
		if err != nil {
			b.Fatalf("C7 reduced: %v", err)
		}
		if !res.Pass {
			b.Fatalf("C7 reduced did not reproduce:\n%s", res.Render())
		}
		events += res.Obs.Counters["sim.event.execute"]
	}
	reportNsPerHostEvent(b, events)
}

func BenchmarkClaimC8JPEGBug(b *testing.B) {
	benchExperiment(b, "C8", "buggy_overwrite_bytes")
}

func BenchmarkClaimC9Reporter(b *testing.B) {
	benchExperiment(b, "C9", "reports_received")
}

func BenchmarkClaimC10AirGap(b *testing.B) {
	benchExperiment(b, "C10", "documents_parked_on_stick", "documents_reaching_center")
}

func BenchmarkClaimC11Bluetooth(b *testing.B) {
	benchExperiment(b, "C11", "distinct_device_sightings")
}

// --- Taxonomy and ablations ---

func BenchmarkTrendTaxonomy(b *testing.B) {
	benchExperiment(b, "T1",
		"stuxnet_sophisticated", "flame_sophisticated", "shamoon_sophisticated",
		"shamoon_suiciding")
}

func BenchmarkAblationPatching(b *testing.B) {
	benchExperiment(b, "A1", "infection_rate_patched_0%", "infection_rate_patched_100%")
}

func BenchmarkAblationAdvisory(b *testing.B) {
	benchExperiment(b, "A2",
		"update_infections_advisory_after_0h", "update_infections_advisory_after_48h")
}

func BenchmarkAblationEpidemicCurve(b *testing.B) {
	benchExperiment(b, "A3", "hours_to_50pct", "hours_to_100pct")
}

// --- Extensions: the paper's other two named weapons ---

func BenchmarkExtDuquTargeting(b *testing.B) {
	benchExperiment(b, "E1", "targets_infected", "non_targets_refused", "distinct_victim_modules")
}

func BenchmarkExtGaussGodel(b *testing.B) {
	benchExperiment(b, "E2", "godel_detonations", "bank_credentials_matched")
}

func BenchmarkExtLineage(b *testing.B) {
	benchExperiment(b, "E3", "sim_stuxnet_duqu", "sim_flame_gauss", "sim_stuxnet_shamoon")
}

func BenchmarkExtSinkhole(b *testing.B) {
	benchExperiment(b, "E4", "sinkhole_checkins_fl", "surviving_types")
}

// --- Resilience: campaigns under the fault-injection engine ---

func BenchmarkResilienceStuxnetTakedownP2P(b *testing.B) {
	benchExperiment(b, "R1", "v2_share", "p2p_syncs", "beacon_failovers")
}

func BenchmarkResilienceFlameDomainAgility(b *testing.B) {
	benchExperiment(b, "R2", "domains_reregistered", "sinkhole_checkins", "sinkhole_distinct_clients")
}

func BenchmarkResilienceShamoonBlackout(b *testing.B) {
	benchExperiment(b, "R3", "infected_hosts", "wiped_hosts", "wipe_reports_home")
}

func BenchmarkResilienceCrashPersistence(b *testing.B) {
	benchExperiment(b, "R4", "wave_a_persisted", "wave_b_infected", "crashes")
}

func BenchmarkResilienceAVAttrition(b *testing.B) {
	benchExperiment(b, "R5", "files_quarantined", "agents_remediated", "agents_alive")
}

// --- Detection: the streaming engine vs live campaigns ---

func BenchmarkDetectCNICampaign(b *testing.B) {
	benchExperiment(b, "D1", "rules_fired", "alerts", "killchain_latency")
}

func BenchmarkDetectCrossCampaign(b *testing.B) {
	benchExperiment(b, "D2", "behavioural_rules_fired", "specific_rules_fired")
}

func BenchmarkDetectFalsePositives(b *testing.B) {
	benchExperiment(b, "D3", "false_positives", "fp_threshold_rules")
}

func BenchmarkDetectNoisyPrecision(b *testing.B) {
	benchExperiment(b, "D4", "precision", "recall", "false_positives")
}

func BenchmarkDetectNoiseFloor(b *testing.B) {
	benchExperiment(b, "D5", "false_positives", "benign_actions")
}

// --- Benign user-activity layer at fleet scale ---

// busyC7Options is the C7 layout with every workstation carrying an
// office agent churning documents, mail, web and shares through the
// whole campaign.
func busyC7Options(hosts int) core.AramcoFleetOptions {
	opts := core.C7Options(hosts)
	opts.Activity = users.MixOffice
	return opts
}

// BenchmarkUsersC7Busy is the populated twin of the registry's 30,000-host
// C7 run. The 1.3x memory bound against the silent fleet is asserted by
// TestBusyFleetMemoryBound and tracked by the BenchmarkClaimC7Reduced /
// BenchmarkUsersC7BusyReduced pair in BENCH_C7.json.
func BenchmarkUsersC7Busy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAramcoFleet(uint64(1+i), busyC7Options(30000))
		if err != nil {
			b.Fatalf("C7 busy: %v", err)
		}
		if !res.Pass {
			b.Fatalf("C7 busy did not reproduce:\n%s", res.Render())
		}
		b.ReportMetric(res.MustMetric("benign_actions"), "benign_actions")
	}
}

// BenchmarkUsersC7BusyReduced is the 2,000-host slice the ci.sh bench
// lane tracks next to BenchmarkClaimC7Reduced — the committed
// BENCH_C7.json pair is the machine-checkable form of the 1.3x bound.
func BenchmarkUsersC7BusyReduced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAramcoFleet(uint64(1+i), busyC7Options(2000))
		if err != nil {
			b.Fatalf("C7 busy reduced: %v", err)
		}
		if !res.Pass {
			b.Fatalf("C7 busy reduced did not reproduce:\n%s", res.Render())
		}
	}
}

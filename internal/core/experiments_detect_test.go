package core

import "testing"

func TestD1CNIDetection(t *testing.T) {
	res := runExperiment(t, "D1")
	if v := res.MustMetric("rules_fired"); v != res.MustMetric("rules_total") {
		t.Fatalf("coverage incomplete: %v rules fired", v)
	}
	if v := res.MustMetric("unattributed_alerts"); v != 0 {
		t.Fatalf("%v alerts without a provenance span", v)
	}
	if v := res.MustMetric("killchain_latency"); v <= 0 {
		t.Fatalf("kill-chain sequence never assembled (latency %v)", v)
	}
}

func TestD2CrossCampaign(t *testing.T) {
	res := runExperiment(t, "D2")
	if v := res.MustMetric("specific_rules_fired"); v != 0 {
		t.Fatalf("campaign-specific rules fired against Shamoon: %v", v)
	}
}

func TestD3FalsePositives(t *testing.T) {
	res := runExperiment(t, "D3")
	if v := res.MustMetric("fp_threshold_rules") + res.MustMetric("fp_sequence_rules"); v != 0 {
		t.Fatalf("stateful rules produced %v false positives", v)
	}
}

package analysis

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cnc"
	"repro/internal/host"
	"repro/internal/malware/shamoon"
	"repro/internal/netsim"
	"repro/internal/pe"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/yara"
)

func seed(b byte) [32]byte {
	var s [32]byte
	s[0] = b
	return s
}

func buildShamoon(t *testing.T) (*sim.Kernel, *shamoon.Shamoon, *pki.Store) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(99), sim.WithStart(shamoon.AramcoTrigger.Add(-48*time.Hour)))
	root := pki.NewRoot("SimRoot CA", pki.HashStrong, seed(1), k.Now().Add(-365*24*time.Hour), 100*365*24*time.Hour)
	eldosKey := pki.NewKeypair(seed(2))
	eldosCert, err := root.Issue(k.Now(), pki.IssueRequest{
		Subject: "Eldos Corporation", Usages: pki.UsageDriverSign,
		Lifetime: 10 * 365 * 24 * time.Hour, PubKey: eldosKey.Public,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	sh, err := shamoon.Build(k, shamoon.Config{
		ReporterDomain: "attacker.example",
		DriverKey:      eldosKey,
		DriverCert:     eldosCert,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return k, sh, pki.NewStore(root.Cert)
}

func TestStaticAnalysisOfShamoonMain(t *testing.T) {
	k, sh, store := buildShamoon(t)
	_ = k
	rules, err := CompileDisclosureRules("shamoon")
	if err != nil {
		t.Fatalf("CompileDisclosureRules: %v", err)
	}
	an := &Analyzer{Store: store, Rules: rules}
	rep, err := an.Analyze(sh.MainImage, sh.MainImage.Timestamp)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Name != "TrkSvr.exe" || rep.Machine != "x86" {
		t.Fatalf("header: %+v", rep)
	}
	// Three encrypted resources flagged.
	if len(rep.Resources) != 3 {
		t.Fatalf("resources = %d", len(rep.Resources))
	}
	for _, res := range rep.Resources {
		if !res.LikelyEncrypted {
			t.Fatalf("resource %d not flagged encrypted (entropy %.2f)", res.ID, res.Entropy)
		}
		if res.RecoveredKey == nil {
			t.Fatalf("resource %d: XOR key not recovered", res.ID)
		}
		if !res.DecryptsToImage {
			t.Fatalf("resource %d: decrypted payload not recognized as image", res.ID)
		}
	}
	// The YARA dissection rule fires on the dropper.
	joined := strings.Join(rep.YaraHits, ",")
	if !strings.Contains(joined, "Shamoon_Dropper") {
		t.Fatalf("yara hits = %v", rep.YaraHits)
	}
	// Unsigned main image.
	if rep.Signature.Present {
		t.Fatal("TrkSvr.exe should be unsigned")
	}
	// Render smoke test.
	out := rep.Render()
	if !strings.Contains(out, "ENCRYPTED") || !strings.Contains(out, "TrkSvr.exe") {
		t.Fatalf("render = %s", out)
	}
}

func TestImpHashClustersVariants(t *testing.T) {
	// The 32- and 64-bit Shamoon variants share the import table, so they
	// share the imphash; an unrelated image does not.
	_, sh, _ := buildShamoon(t)
	h32 := ImpHash(sh.MainImage)
	h64 := ImpHash(sh.MainImage64)
	if h32 == "" || h32 != h64 {
		t.Fatalf("variant imphashes differ: %q vs %q", h32, h64)
	}
	other := &pe.File{Name: "other.exe", Machine: pe.MachineX86, Timestamp: time.Unix(0, 0),
		Imports: []pe.Import{{Library: "user32.dll", Functions: []string{"MessageBoxW"}}}}
	if ImpHash(other) == h32 {
		t.Fatal("unrelated image shares the imphash")
	}
	// Order-normalized: shuffled imports hash identically.
	shuffled := &pe.File{Name: "s", Machine: pe.MachineX86, Timestamp: time.Unix(0, 0),
		Imports: []pe.Import{
			{Library: "mpr.dll", Functions: []string{"WNetAddConnection2W"}},
			{Library: "advapi32.dll", Functions: []string{"StartServiceW", "CreateServiceW"}},
		}}
	if ImpHash(shuffled) != h32 {
		t.Fatalf("order normalization broken: %q vs %q", ImpHash(shuffled), h32)
	}
}

func TestStaticAnalysisSignedDriver(t *testing.T) {
	k, sh, store := buildShamoon(t)
	an := &Analyzer{Store: store}
	rep, err := an.Analyze(sh.RawDiskDriver, k.Now())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.Signature.Present || rep.Signature.Signer != "Eldos Corporation" {
		t.Fatalf("signature = %+v", rep.Signature)
	}
	if len(rep.Signature.ValidFor) != 1 || rep.Signature.ValidFor[0] != "driver-sign" {
		t.Fatalf("ValidFor = %v", rep.Signature.ValidFor)
	}
}

func TestXORKeyRecoveryKnownKeys(t *testing.T) {
	// Structured plaintext: an SPE image.
	img := &pe.File{Name: "component.exe", Machine: pe.MachineX86, Timestamp: time.Unix(0, 0),
		Sections: []pe.Section{{Name: ".text", Data: append([]byte("some code with strings and structure"), make([]byte, 4096)...)}}}
	plain, err := img.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for _, key := range [][]byte{{0x5A}, {0xA7}, {0x13, 0x37}, {0xDE, 0xAD, 0xBE}} {
		cipher := pe.XOR(plain, key)
		got, recovered, ok := RecoverXORKey(cipher, 4)
		if !ok {
			t.Fatalf("key % X: recovery not confident", key)
		}
		if !bytes.Equal(recovered, plain) {
			t.Fatalf("key % X: wrong plaintext (got key % X)", key, got)
		}
	}
}

func TestXORKeyRecoveryRejectsRandom(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(5))
	random := k.RNG().Bytes(8 * 1024)
	if _, _, ok := RecoverXORKey(random, 4); ok {
		t.Fatal("recovery claimed confidence on random data")
	}
	if _, _, ok := RecoverXORKey([]byte("tiny"), 4); ok {
		t.Fatal("recovery on tiny input")
	}
}

func TestSignatureAVBlocksKnownFamily(t *testing.T) {
	k, sh, store := buildShamoon(t)
	rules, _ := CompileDisclosureRules("shamoon")
	av := NewSignatureAV("SimAV", rules)

	h := host.New(k, "GUARDED", host.WithCertStore(store))
	h.AddSecurity(av)
	if _, err := h.Execute(sh.MainImage, true); err == nil {
		t.Fatal("AV with disclosure rules did not block the dropper")
	}

	// Before disclosure (no rules) the same sample runs.
	h2 := host.New(k, "UNGUARDED", host.WithCertStore(store))
	h2.AddSecurity(NewSignatureAV("SimAV", nil))
	if _, err := h2.Execute(sh.MainImage, true); err != nil {
		t.Fatalf("rule-less AV blocked execution: %v", err)
	}
}

func TestSignatureAVUpdateRules(t *testing.T) {
	k, sh, store := buildShamoon(t)
	av := NewSignatureAV("SimAV", nil)
	h := host.New(k, "WS", host.WithCertStore(store))
	h.AddSecurity(av)
	if _, err := h.Execute(sh.MainImage, true); err != nil {
		t.Fatalf("pre-update block: %v", err)
	}
	rules, _ := CompileDisclosureRules("shamoon")
	av.UpdateRules(rules)
	if av.ScanImage(h, sh.MainImage) == "" {
		t.Fatal("updated rules do not detect")
	}
}

func TestSandboxDetonationOfShamoon(t *testing.T) {
	// A fully self-contained detonation: fresh sandbox, its own build of
	// the family bound into the sandbox registry.
	sb := NewSandbox(42, WithDecoyDocs(20))
	// Build Shamoon against the sandbox kernel, triggering soon.
	root := pki.NewRoot("SimRoot CA", pki.HashStrong, seed(1), sb.K.Now().Add(-time.Hour), 100*365*24*time.Hour)
	eldosKey := pki.NewKeypair(seed(2))
	eldosCert, _ := root.Issue(sb.K.Now(), pki.IssueRequest{
		Subject: "Eldos Corporation", Usages: pki.UsageDriverSign,
		Lifetime: 10 * 365 * 24 * time.Hour, PubKey: eldosKey.Public,
	})
	sb.Victim.CertStore.AddRoot(root.Cert)
	sh, err := shamoon.Build(sb.K, shamoon.Config{
		TriggerAt:      sb.K.Now().Add(2 * time.Hour),
		ReporterDomain: "home.attacker.example",
		DriverKey:      eldosKey,
		DriverCert:     eldosCert,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sh.BindTo(sb.Registry)

	rep := sb.Run(sh.MainImage, 6*time.Hour)
	if !rep.Executed {
		t.Fatalf("not executed: %s", rep.ExecErr)
	}
	if len(rep.FilesCreated) == 0 {
		t.Fatal("no files created")
	}
	foundTrkSvr := false
	for _, f := range rep.FilesCreated {
		if strings.Contains(f, "trksvr.exe") {
			foundTrkSvr = true
		}
	}
	if !foundTrkSvr {
		t.Fatalf("dropper artefacts not observed: %v", rep.FilesCreated)
	}
	if len(rep.ServicesCreated) == 0 || len(rep.TasksCreated) == 0 {
		t.Fatalf("persistence not observed: %+v", rep)
	}
	// The sinkhole caught the reporter's domain.
	if len(rep.DomainsContacted) == 0 || rep.DomainsContacted[0] != "home.attacker.example" {
		t.Fatalf("domains = %v", rep.DomainsContacted)
	}
	if rep.WipeActions == 0 || !rep.HostWiped || rep.HostBootable {
		t.Fatalf("wipe not observed: %+v", rep)
	}
	if len(rep.DriversLoaded) == 0 {
		t.Fatal("raw-disk driver load not observed")
	}
	// Render smoke test.
	if out := rep.Render(); !strings.Contains(out, "wiped=true") {
		t.Fatalf("render = %s", out)
	}
}

func TestSandboxBenignSample(t *testing.T) {
	sb := NewSandbox(7)
	benign := &pe.File{Name: "notepad.exe", Machine: pe.MachineX86, Timestamp: sb.K.Now(),
		Sections: []pe.Section{{Name: ".text", Data: []byte("hello world")}}}
	rep := sb.Run(benign, time.Hour)
	if !rep.Executed {
		t.Fatal("benign sample blocked")
	}
	if len(rep.FilesCreated) != 0 || rep.WipeActions != 0 || len(rep.DomainsContacted) != 0 {
		t.Fatalf("benign sample produced activity: %+v", rep)
	}
}

func TestTrendClassifierMatchesPaperShape(t *testing.T) {
	stuxnetProfile := ClassifyTrends(TrendInput{
		Family: "stuxnet", ZeroDaysUsed: 4, SignedComponents: true, ICSCapability: true,
		HardwareFingerprinting: true, SpreadLimited: true,
		StolenCertificate: true, ModulesDownloadable: true,
		USBInfectionVector: true, SelfRemoval: true, RemoteTrigger: true,
	})
	flameProfile := ClassifyTrends(TrendInput{
		Family: "flame", ZeroDaysUsed: 1, ForgedCertificate: true, CnCServerCount: 22,
		ModularRuntime: true, SpreadLimited: true, ModulesDownloadable: true,
		USBInfectionVector: true, USBDataFerrying: true, SelfRemoval: true, RemoteTrigger: true,
	})
	shamoonProfile := ClassifyTrends(TrendInput{
		Family: "shamoon", BroadWormBehaviour: true, LegitimateDriverAbuse: true,
		Destructive: true,
	})

	// Paper shape: Stuxnet and Flame far more sophisticated than Shamoon.
	if stuxnetProfile.Score(AxisSophisticated) <= shamoonProfile.Score(AxisSophisticated) {
		t.Fatal("stuxnet should out-score shamoon on sophistication")
	}
	if flameProfile.Score(AxisSophisticated) <= shamoonProfile.Score(AxisSophisticated) {
		t.Fatal("flame should out-score shamoon on sophistication")
	}
	// All three abuse certificates in some way.
	for _, p := range []TrendProfile{stuxnetProfile, flameProfile, shamoonProfile} {
		if p.Score(AxisCertified) == 0 {
			t.Fatalf("%s: certified axis = 0", p.Family)
		}
	}
	// Shamoon has no suicide module (paper, V-F: "all described malware
	// (except Shamoon) have an uninstallation module").
	if shamoonProfile.Score(AxisSuiciding) != 0 {
		t.Fatalf("shamoon suiciding = %d", shamoonProfile.Score(AxisSuiciding))
	}
	if stuxnetProfile.Score(AxisSuiciding) == 0 || flameProfile.Score(AxisSuiciding) == 0 {
		t.Fatal("stuxnet/flame should score on suiciding")
	}
	// Flame leads on modularity.
	if flameProfile.Score(AxisModular) < stuxnetProfile.Score(AxisModular) {
		t.Fatal("flame should lead modularity")
	}

	table := RenderTable(stuxnetProfile, flameProfile, shamoonProfile)
	for _, want := range []string{"sophisticated", "stuxnet", "flame", "shamoon", "usb-spreading"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestCompileAllDisclosureRules(t *testing.T) {
	rs, err := CompileDisclosureRules()
	if err != nil {
		t.Fatalf("CompileDisclosureRules: %v", err)
	}
	if len(rs.Rules) < 4 {
		t.Fatalf("rules = %d", len(rs.Rules))
	}
}

func TestDisclosureRulesAreFamilySpecific(t *testing.T) {
	_, sh, _ := buildShamoon(t)
	stuxRules, _ := CompileDisclosureRules("stuxnet")
	raw, _ := sh.MainImage.Marshal()
	if hits := stuxRules.ScanNames(raw); len(hits) != 0 {
		t.Fatalf("stuxnet rules hit shamoon: %v", hits)
	}
}

func TestInterestingStringsFilter(t *testing.T) {
	data := []byte("boring words here\x00www.mypremierfutbol.com\x00netinit.exe\x00random filler")
	got := interestingStrings(data, 6)
	joined := strings.Join(got, "|")
	if !strings.Contains(joined, "futbol") || !strings.Contains(joined, "netinit.exe") {
		t.Fatalf("got %v", got)
	}
	for _, s := range got {
		if s == "boring words here" {
			t.Fatal("boring string kept")
		}
	}
}

func TestSandboxYaraPipeline(t *testing.T) {
	// Static + dynamic pipeline: hunt for the Flame C&C protocol rule in
	// traffic... simplified: confirm the yara engine integrates with
	// image bytes from an arbitrary family build.
	_, sh, store := buildShamoon(t)
	rules := yara.MustCompile(`
rule ReporterComponent {
    strings:
        $get = "data.asp"
        $inf = "f1.inf"
    condition:
        $get and $inf
}`)
	an := &Analyzer{Store: store, Rules: rules}
	rep, err := an.Analyze(sh.ReporterImage, sh.ReporterImage.Timestamp)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(rep.YaraHits) != 1 || rep.YaraHits[0] != "ReporterComponent" {
		t.Fatalf("hits = %v", rep.YaraHits)
	}
}

func TestSinkholeCatchesArbitraryDomains(t *testing.T) {
	sb := NewSandbox(4)
	resp, err := sb.LAN.HTTP(sb.Victim, &netsim.Request{Method: "GET", Host: "never-registered.example", Path: "/x"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("sinkhole: %v %v", err, resp)
	}
	if len(sb.SinkholedRequests) != 1 {
		t.Fatalf("requests = %d", len(sb.SinkholedRequests))
	}
}

// Guard against regressions in cnc import (used by the full campaign
// examples that build on the analysis package).
var _ = cnc.ClientFL

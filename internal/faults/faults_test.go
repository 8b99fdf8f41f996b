package faults

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cnc"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/sim"
)

func testKernel() *sim.Kernel { return sim.NewKernel(sim.WithSeed(7)) }

func testEngine() (*sim.Kernel, *netsim.Internet, *Engine) {
	k := testKernel()
	in := netsim.NewInternet(k)
	return k, in, NewEngine(k, in)
}

func okServer() netsim.Handler {
	return netsim.HandlerFunc(func(*netsim.Request) *netsim.Response {
		return netsim.OK([]byte("ok"))
	})
}

func testImage(name string) *pe.File {
	return &pe.File{
		Name:       name,
		Machine:    pe.MachineX86,
		Timestamp:  time.Date(2012, 5, 1, 0, 0, 0, 0, time.UTC),
		EntryPoint: 0x401000,
		Sections: []pe.Section{
			{Name: ".text", Characteristics: pe.SecCode | pe.SecExec, Data: []byte("payload body of " + name)},
		},
	}
}

func TestFaultProfiles(t *testing.T) {
	p, err := Lookup("")
	if err != nil || p.Name != DefaultProfile {
		t.Fatalf("Lookup(\"\") = %q, %v; want default %q", p.Name, err, DefaultProfile)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("Lookup(bogus) did not fail")
	}
	names := Names()
	if !sort.StringsAreSorted(names) || len(names) != len(Profiles) {
		t.Fatalf("Names() = %v", names)
	}
	if Profiles["none"].Active() {
		t.Fatal("profile none reports Active")
	}
	for _, name := range []string{"light", "takedown", "chaos"} {
		if !Profiles[name].Active() {
			t.Fatalf("profile %s reports inactive", name)
		}
	}
}

func TestFaultTakedownRestore(t *testing.T) {
	k, in, eng := testEngine()
	in.RegisterDomain("c2.example", "203.0.113.5")
	in.BindServer("203.0.113.5", okServer())

	if !eng.TakedownDomain("c2.example") {
		t.Fatal("takedown of a registered domain failed")
	}
	if in.Reachable("c2.example") {
		t.Fatal("domain still reachable after takedown")
	}
	if in.FaultMode("c2.example") != "takedown" {
		t.Fatalf("FaultMode = %q", in.FaultMode("c2.example"))
	}
	if in.FaultSpan("c2.example") == 0 {
		t.Fatal("takedown left no causal span for fallback attribution")
	}
	if eng.TakedownDomain("never.example") {
		t.Fatal("takedown of an unregistered domain succeeded")
	}
	if eng.Stats.Takedowns != 1 {
		t.Fatalf("Takedowns = %d", eng.Stats.Takedowns)
	}
	if got := k.Metrics().Counter("faults.domain.takedown").Value(); got != 1 {
		t.Fatalf("faults.domain.takedown = %g", got)
	}

	if !eng.RestoreDomain("c2.example") {
		t.Fatal("restore failed")
	}
	if !in.Reachable("c2.example") {
		t.Fatal("domain not reachable after restore")
	}
	if in.FaultSpan("c2.example") != 0 {
		t.Fatal("restore left a stale fault span")
	}
	if eng.RestoreDomain("c2.example") {
		t.Fatal("double restore succeeded")
	}
}

func TestFaultNXWindowRestoresOnSchedule(t *testing.T) {
	k, in, eng := testEngine()
	in.RegisterDomain("c2.example", "203.0.113.5")
	in.BindServer("203.0.113.5", okServer())

	eng.NXWindow("c2.example", 24*time.Hour)
	if in.Reachable("c2.example") {
		t.Fatal("domain reachable inside NX window")
	}
	k.RunFor(25 * time.Hour)
	if !in.Reachable("c2.example") {
		t.Fatal("NX window did not restore the domain")
	}
	if eng.Stats.Takedowns != 1 || eng.Stats.Restores != 1 {
		t.Fatalf("stats = %+v", eng.Stats)
	}
}

func TestFaultSinkholeCensus(t *testing.T) {
	k, in, eng := testEngine()
	in.RegisterDomain("a.example", "203.0.113.1") // alive name, no server: dead C&C
	eng.TakedownDomain("b.example")               // nothing to take down
	in.RegisterDomain("b.example", "203.0.113.2")
	eng.TakedownDomain("b.example") // expired name, later claimed by the sinkhole

	sink := NewSinkhole(k, "198.51.100.9")
	if n := eng.SinkholeDomains([]string{"a.example", "b.example"}, sink); n != 2 {
		t.Fatalf("SinkholeDomains = %d, want 2", n)
	}

	checkin := func(domain, client, ctype string) *netsim.Response {
		t.Helper()
		resp, err := in.Dispatch(&netsim.Request{
			Method: "POST", Host: domain, Path: cnc.ClientPath, Source: client,
			Query: map[string]string{"cmd": cnc.CmdGetNews, "client": client, "type": ctype},
		})
		if err != nil || resp.Status != 200 {
			t.Fatalf("checkin via %s: %v %v", domain, err, resp)
		}
		return resp
	}
	resp := checkin("a.example", "victim-1", "FL")
	pkgs, err := cnc.DecodePackages(resp.Body)
	if err != nil || len(pkgs) != 0 {
		t.Fatalf("sinkhole GET_NEWS answer not an empty package list: %d %v", len(pkgs), err)
	}
	checkin("b.example", "victim-2", "SP")
	checkin("b.example", "victim-2", "SP")

	if sink.Checkins() != 3 || sink.DistinctClients() != 2 {
		t.Fatalf("checkins = %d distinct = %d", sink.Checkins(), sink.DistinctClients())
	}
	if sink.DomainCensus()["b.example"] != 2 || sink.TypeCensus()["FL"] != 1 {
		t.Fatalf("census = %v %v", sink.DomainCensus(), sink.TypeCensus())
	}
	if got := k.Metrics().Counter("faults.sinkhole.checkin").Value(); got != 3 {
		t.Fatalf("faults.sinkhole.checkin = %g", got)
	}
	if n := len(k.Trace().Filter(sim.CatFault)); n < 5 { // 2 takedown spans + sinkhole span + 3 checkins, minus ring slack
		t.Fatalf("fault-category trace records = %d", n)
	}
}

func TestFaultCrashRebootCycle(t *testing.T) {
	k, _, eng := testEngine()
	h := host.New(k, "WS-1")

	if !eng.CrashHost(h, 2*time.Hour) {
		t.Fatal("crash failed")
	}
	if !h.Down {
		t.Fatal("host not down after crash")
	}
	if eng.CrashHost(h, time.Hour) {
		t.Fatal("crash of a down host succeeded")
	}
	k.RunFor(3 * time.Hour)
	if h.Down {
		t.Fatal("host did not reboot after downtime")
	}
	if h.BootCount != 1 {
		t.Fatalf("BootCount = %d", h.BootCount)
	}
	if eng.Stats.Crashes != 1 {
		t.Fatalf("Crashes = %d", eng.Stats.Crashes)
	}
}

func TestFaultCrashCyclesSampleFleet(t *testing.T) {
	k, _, eng := testEngine()
	var hosts []*host.Host
	for i := 0; i < 6; i++ {
		hosts = append(hosts, host.New(k, fmt.Sprintf("WS-%d", i+1)))
	}
	cancel := eng.StartCrashCycles(hosts, 12*time.Hour, 1.0, time.Hour)
	k.RunFor(13 * time.Hour)
	if eng.Stats.Crashes != len(hosts) {
		t.Fatalf("fraction 1.0 crashed %d of %d hosts", eng.Stats.Crashes, len(hosts))
	}
	cancel()
	before := eng.Stats.Crashes
	k.RunFor(48 * time.Hour)
	if eng.Stats.Crashes != before {
		t.Fatal("cancel did not stop the crash cycle")
	}
}

func TestFaultPatchRollout(t *testing.T) {
	k, _, eng := testEngine()
	hosts := []*host.Host{host.New(k, "A"), host.New(k, "B")}
	eng.PatchHosts(hosts, "MS10-061", "MS08-067")
	for _, h := range hosts {
		if !h.Patched("MS10-061") || !h.Patched("MS08-067") {
			t.Fatalf("%s missing patches", h.Name)
		}
	}
	if eng.Stats.Patches != 4 {
		t.Fatalf("Patches = %d, want 4", eng.Stats.Patches)
	}
}

func TestFaultAVSweepQuarantinesKnownDigests(t *testing.T) {
	k, _, eng := testEngine()
	evil := testImage("mssecmgr.ocx")
	raw, err := evil.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	h := host.New(k, "WS-1")
	if err := h.FS.Write(host.SystemDir+`\mssecmgr.ocx`, raw, 0, k.Now()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := h.FS.Write(`C:\docs\report.docx`, []byte("quarterly numbers"), 0, k.Now()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// A different, unknown PE image must survive a digest-based sweep.
	otherRaw, err := testImage("other.exe").Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := h.FS.Write(`C:\tools\other.exe`, otherRaw, 0, k.Now()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	down := host.New(k, "WS-2")
	if err := down.FS.Write(host.SystemDir+`\mssecmgr.ocx`, raw, 0, k.Now()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	down.Crash()

	known := Digests(evil)
	if n := eng.AVSweep([]*host.Host{h, down}, known); n != 1 {
		t.Fatalf("AVSweep = %d, want 1", n)
	}
	if h.FS.Exists(host.SystemDir + `\mssecmgr.ocx`) {
		t.Fatal("known image survived the sweep")
	}
	if !h.FS.Exists(`C:\docs\report.docx`) || !h.FS.Exists(`C:\tools\other.exe`) {
		t.Fatal("sweep deleted a benign file")
	}
	if !down.FS.Exists(host.SystemDir + `\mssecmgr.ocx`) {
		t.Fatal("sweep scanned a down host")
	}
	if eng.Stats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d", eng.Stats.Quarantines)
	}
}

// TestFaultEventJSONLRoundTrip drives a small adversity scenario, exports
// the kernel trace — fault-category events, root fault spans, sinkhole
// check-ins with their tags — through the JSONL wire format and re-imports
// it. Parsing must preserve every field (tags come back key-sorted, a
// deterministic order), and a second export/import cycle must be a fixed
// point byte-for-byte.
func TestFaultEventJSONLRoundTrip(t *testing.T) {
	k, in, eng := testEngine()
	in.RegisterDomain("c2.example", "203.0.113.5")
	eng.TakedownDomain("c2.example")
	sink := NewSinkhole(k, "198.51.100.9")
	eng.SinkholeDomains([]string{"c2.example"}, sink)
	if _, err := in.Dispatch(&netsim.Request{
		Method: "POST", Host: "c2.example", Path: cnc.ClientPath, Source: "victim-1",
		Query: map[string]string{"cmd": cnc.CmdGetNews, "client": "victim-1", "type": "FL"},
	}); err != nil {
		t.Fatalf("checkin: %v", err)
	}

	events := k.Trace().Events()
	if len(events) == 0 {
		t.Fatal("scenario produced no events")
	}
	var sawFault, sawSinkTag, sawSpan bool
	for _, e := range events {
		if e.Cat == string(sim.CatFault) {
			sawFault = true
		}
		if _, ok := e.Get("sinkhole"); ok {
			sawSinkTag = true
		}
		if e.Span != 0 {
			sawSpan = true
		}
	}
	if !sawFault || !sawSinkTag || !sawSpan {
		t.Fatalf("stream missing shapes: fault=%v sinkholeTag=%v span=%v", sawFault, sawSinkTag, sawSpan)
	}

	var buf1 bytes.Buffer
	if err := obs.WriteJSONL(&buf1, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	parsed, err := obs.ParseJSONL(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(events))
	}
	for i, e := range events {
		p := parsed[i]
		if !p.At.Equal(e.At) || p.Seq != e.Seq || p.Cat != e.Cat ||
			p.Actor != e.Actor || p.Msg != e.Msg || p.Span != e.Span || p.Parent != e.Parent {
			t.Fatalf("event %d changed across the wire:\n got %+v\nwant %+v", i, p, e)
		}
		for _, tag := range e.Tags {
			if v, ok := p.Get(tag.K); !ok || v != tag.V {
				t.Fatalf("event %d lost tag %s=%q (got %q, %v)", i, tag.K, tag.V, v, ok)
			}
		}
	}

	// Export the parsed stream again: parse(write(x)) must be a fixed point.
	var buf2 bytes.Buffer
	if err := obs.WriteJSONL(&buf2, parsed); err != nil {
		t.Fatalf("WriteJSONL(parsed): %v", err)
	}
	reparsed, err := obs.ParseJSONL(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatalf("ParseJSONL(round 2): %v", err)
	}
	if !reflect.DeepEqual(parsed, reparsed) {
		t.Fatal("second round trip changed the records")
	}
	var buf3 bytes.Buffer
	if err := obs.WriteJSONL(&buf3, reparsed); err != nil {
		t.Fatalf("WriteJSONL(round 2): %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("round-tripped JSONL bytes differ")
	}
}

func BenchmarkFaultAVSweep(b *testing.B) {
	k, _, eng := testEngine()
	evil := testImage("mssecmgr.ocx")
	raw, err := evil.Marshal()
	if err != nil {
		b.Fatalf("Marshal: %v", err)
	}
	var hosts []*host.Host
	for i := 0; i < 8; i++ {
		h := host.New(k, fmt.Sprintf("WS-%d", i+1))
		for j := 0; j < 20; j++ {
			h.FS.Write(fmt.Sprintf(`C:\docs\doc-%02d.docx`, j), []byte("document body"), 0, k.Now())
		}
		hosts = append(hosts, h)
	}
	known := Digests(evil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hosts[i%len(hosts)].FS.Write(host.SystemDir+`\mssecmgr.ocx`, raw, 0, k.Now())
		eng.AVSweep(hosts, known)
	}
}

func BenchmarkFaultSinkholeCheckin(b *testing.B) {
	k, in, eng := testEngine()
	in.RegisterDomain("c2.example", "203.0.113.5")
	eng.TakedownDomain("c2.example")
	sink := NewSinkhole(k, "198.51.100.9")
	eng.SinkholeDomains([]string{"c2.example"}, sink)
	req := &netsim.Request{
		Method: "POST", Host: "c2.example", Path: cnc.ClientPath, Source: "victim-1",
		Query: map[string]string{"cmd": cnc.CmdGetNews, "client": "victim-1", "type": "FL"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Dispatch(req); err != nil {
			b.Fatalf("Dispatch: %v", err)
		}
	}
}

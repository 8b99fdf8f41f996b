package netsim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/pe"
	"repro/internal/pki"
	"repro/internal/sim"
)

func testKernel() *sim.Kernel { return sim.NewKernel(sim.WithSeed(3)) }

func echoServer() Handler {
	return HandlerFunc(func(req *Request) *Response {
		return OK([]byte("echo:" + req.Path))
	})
}

func TestDNSAndDispatch(t *testing.T) {
	k := testKernel()
	in := NewInternet(k)
	in.RegisterDomain("www.mypremierfutbol.com", "203.0.113.7")
	in.BindServer("203.0.113.7", echoServer())

	resp, err := in.Dispatch(&Request{Method: "GET", Host: "www.mypremierfutbol.com", Path: "/index.php", Source: "victim"})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if string(resp.Body) != "echo:/index.php" {
		t.Fatalf("body = %q", resp.Body)
	}
	if _, err := in.Dispatch(&Request{Host: "nxdomain.example"}); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
}

func TestDispatchByLiteralIP(t *testing.T) {
	in := NewInternet(testKernel())
	in.BindServer("198.51.100.1", echoServer())
	resp, err := in.Dispatch(&Request{Host: "198.51.100.1", Path: "/x"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("literal IP dispatch: %v %v", err, resp)
	}
}

func TestDomainTakedown(t *testing.T) {
	in := NewInternet(testKernel())
	in.RegisterDomain("c2.example", "203.0.113.9")
	in.BindServer("203.0.113.9", echoServer())
	if !in.Reachable("c2.example") {
		t.Fatal("domain should be reachable")
	}
	in.UnregisterDomain("c2.example")
	if in.Reachable("c2.example") {
		t.Fatal("takedown ineffective")
	}
}

func TestDistinctServerIPs(t *testing.T) {
	in := NewInternet(testKernel())
	in.RegisterDomain("a.example", "1.1.1.1")
	in.RegisterDomain("b.example", "1.1.1.1")
	in.RegisterDomain("c.example", "2.2.2.2")
	if got := in.DistinctServerIPs(); got != 2 {
		t.Fatalf("DistinctServerIPs = %d, want 2", got)
	}
	if got := len(in.Domains()); got != 3 {
		t.Fatalf("Domains = %d, want 3", got)
	}
}

func TestLANAttachAndAddressing(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	h1 := host.New(k, "WS-1")
	h2 := host.New(k, "WS-2")
	n1 := l.Attach(h1)
	n2 := l.Attach(h2)
	if n1.IP == n2.IP {
		t.Fatal("duplicate IPs")
	}
	if !strings.HasPrefix(string(n1.IP), "10.0.0.") {
		t.Fatalf("IP = %s", n1.IP)
	}
	if len(l.Hosts()) != 2 || len(l.Peers("ws-1")) != 1 {
		t.Fatal("host enumeration broken")
	}
	if l.Node("WS-1") == nil || l.Node("ws-1") == nil {
		t.Fatal("node lookup case sensitivity")
	}
}

func TestSMBCopyRequiresOpenShares(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	src := host.New(k, "SRC", host.WithShares(true))
	closed := host.New(k, "CLOSED")
	open := host.New(k, "OPEN", host.WithShares(true))
	l.Attach(src)
	l.Attach(closed)
	l.Attach(open)

	if l.ShareAccessible(src, "CLOSED") {
		t.Fatal("closed host reported accessible")
	}
	if !l.ShareAccessible(src, "OPEN") {
		t.Fatal("open host reported inaccessible")
	}
	if err := l.CopyToShare(src, "CLOSED", `C:\x`, []byte("payload")); !errors.Is(err, ErrShareClosed) {
		t.Fatalf("err = %v, want ErrShareClosed", err)
	}
	if err := l.CopyToShare(src, "OPEN", `C:\Windows\System32\trksvr.exe`, []byte("payload")); err != nil {
		t.Fatalf("CopyToShare: %v", err)
	}
	if !open.FS.Exists(`C:\Windows\System32\trksvr.exe`) {
		t.Fatal("file not written on target")
	}
	if err := l.CopyToShare(src, "GHOST", `C:\x`, nil); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteExec(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	src := host.New(k, "SRC")
	dst := host.New(k, "DST", host.WithShares(true))
	l.Attach(src)
	l.Attach(dst)
	img := &pe.File{Name: "TrkSvr.exe", Machine: pe.MachineX86, Timestamp: k.Now()}
	raw, _ := img.Marshal()
	dst.FS.Write(`C:\Windows\System32\trksvr.exe`, raw, 0, k.Now())
	ran := false
	dst.Dispatcher = func(h *host.Host, p *host.Process, got *pe.File) { ran = got.Name == "TrkSvr.exe" }
	if err := l.RemoteExec(src, "DST", `C:\Windows\System32\trksvr.exe`); err != nil {
		t.Fatalf("RemoteExec: %v", err)
	}
	if !ran {
		t.Fatal("remote binary did not run")
	}
}

func TestSpoolerExploitGates(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	src := host.New(k, "SRC")
	vuln := host.New(k, "VULN", host.WithShares(true))
	patched := host.New(k, "PATCHED", host.WithShares(true), host.WithPatches(MS10_061))
	noshares := host.New(k, "NOSHARES")
	for _, h := range []*host.Host{src, vuln, patched, noshares} {
		l.Attach(h)
	}
	dropper := &pe.File{Name: "winsta.exe", Machine: pe.MachineX86, Timestamp: k.Now()}

	ran := false
	vuln.Dispatcher = func(h *host.Host, p *host.Process, img *pe.File) {
		ran = true
		if !p.System {
			t.Error("spooler dropper should run as SYSTEM")
		}
	}
	if err := l.SpoolerExploit(src, "VULN", dropper); err != nil {
		t.Fatalf("SpoolerExploit: %v", err)
	}
	k.Drain(16)
	if !ran {
		t.Fatal("dropper never executed via MOF")
	}
	if !vuln.FS.Exists(`C:\Windows\System32\wbem\mof\sysnullevnt.mof`) {
		t.Fatal("MOF file missing")
	}

	if err := l.SpoolerExploit(src, "PATCHED", dropper); err == nil {
		t.Fatal("exploit succeeded against patched host")
	}
	if err := l.SpoolerExploit(src, "NOSHARES", dropper); !errors.Is(err, ErrShareClosed) {
		t.Fatalf("err = %v, want ErrShareClosed", err)
	}
}

func TestWPADHijackAndProxyMITM(t *testing.T) {
	k := testKernel()
	in := NewInternet(k)
	in.RegisterDomain("news.example", "198.51.100.2")
	in.BindServer("198.51.100.2", echoServer())

	l := NewLAN(k, "office", "10.0.0", in)
	attacker := host.New(k, "INFECTED", host.WithInternet(true))
	victim := host.New(k, "VICTIM", host.WithInternet(true))
	an := l.Attach(attacker)
	l.Attach(victim)

	// No responder: browser keeps direct connectivity.
	l.BrowserLaunch(victim)
	if victim.ProxyHost != "" {
		t.Fatal("proxy set with no WPAD responder")
	}

	// Attacker answers WPAD; victim adopts it on next browser launch.
	an.WPADResponder = func(from *host.Host) (string, bool) { return "INFECTED", true }
	var sawThroughProxy []string
	an.Proxy = func(req *Request) *Response {
		sawThroughProxy = append(sawThroughProxy, req.Host+req.Path)
		if req.Host == "news.example" && req.Path == "/intercept" {
			return OK([]byte("FAKE CONTENT"))
		}
		return nil // pass through
	}
	l.BrowserLaunch(victim)
	if victim.ProxyHost != "INFECTED" {
		t.Fatalf("ProxyHost = %q", victim.ProxyHost)
	}

	// Pass-through request reaches the real server but is observed.
	resp, err := l.HTTP(victim, &Request{Method: "GET", Host: "news.example", Path: "/real"})
	if err != nil || string(resp.Body) != "echo:/real" {
		t.Fatalf("pass-through: %v %q", err, resp)
	}
	// Intercepted request gets the attacker's bytes.
	resp, err = l.HTTP(victim, &Request{Method: "GET", Host: "news.example", Path: "/intercept"})
	if err != nil || string(resp.Body) != "FAKE CONTENT" {
		t.Fatalf("intercept: %v %q", err, resp)
	}
	if len(sawThroughProxy) != 2 {
		t.Fatalf("proxy observed %d requests, want 2", len(sawThroughProxy))
	}
}

func TestARPPoisonMITM(t *testing.T) {
	k := testKernel()
	in := NewInternet(k)
	in.RegisterDomain("site.example", "198.51.100.3")
	in.BindServer("198.51.100.3", echoServer())
	l := NewLAN(k, "office", "10.0.0", in)
	attacker := host.New(k, "ATTACKER", host.WithInternet(true))
	victim := host.New(k, "VICTIM", host.WithInternet(true))
	pinned := host.New(k, "PINNED", host.WithInternet(true))
	an := l.Attach(attacker)
	l.Attach(victim)
	pn := l.Attach(pinned)
	pn.StaticARP = true

	an.Proxy = func(req *Request) *Response {
		if req.Path == "/steal" {
			return OK([]byte("MITM"))
		}
		return nil
	}
	// No browser launch needed: the poison redirects immediately.
	if err := l.ARPPoison(attacker, "VICTIM"); err != nil {
		t.Fatalf("ARPPoison: %v", err)
	}
	resp, err := l.HTTP(victim, &Request{Method: "GET", Host: "site.example", Path: "/steal"})
	if err != nil || string(resp.Body) != "MITM" {
		t.Fatalf("intercept: %v %q", err, resp)
	}
	// Hardened target resists.
	if err := l.ARPPoison(attacker, "PINNED"); !errors.Is(err, ErrStaticARP) {
		t.Fatalf("err = %v, want ErrStaticARP", err)
	}
	if err := l.ARPPoison(attacker, "GHOST"); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPWithoutInternet(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "airgap", "10.9.0", nil)
	h := host.New(k, "ISOLATED")
	l.Attach(h)
	if _, err := l.HTTP(h, &Request{Host: "x.example"}); !errors.Is(err, ErrNoInternet) {
		t.Fatalf("err = %v, want ErrNoInternet", err)
	}
	h2 := host.New(k, "CONNECTED-FLAG", host.WithInternet(true))
	l.Attach(h2)
	if _, err := l.HTTP(h2, &Request{Host: "x.example"}); !errors.Is(err, ErrNoInternet) {
		t.Fatalf("air-gapped LAN err = %v, want ErrNoInternet", err)
	}
}

func updatePKI(t *testing.T, now time.Time) (*pki.Store, *pki.Keypair, *pki.Certificate) {
	t.Helper()
	var s1, s2 [32]byte
	s1[0], s2[0] = 1, 2
	root := pki.NewRoot("SimSoft Root", pki.HashStrong, s1, now.Add(-time.Hour), 100*365*24*time.Hour)
	key := pki.NewKeypair(s2)
	cert, err := root.Issue(now, pki.IssueRequest{
		Subject: "SimSoft Windows Update", Usages: pki.UsageCodeSign,
		Lifetime: 10 * 365 * 24 * time.Hour, PubKey: key.Public,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return pki.NewStore(root.Cert), key, cert
}

func TestWindowsUpdateGenuineFlow(t *testing.T) {
	k := testKernel()
	in := NewInternet(k)
	store, key, cert := updatePKI(t, k.Now())
	wu := NewWindowsUpdate(in, "198.51.100.50")

	update := &pe.File{Name: "KB-2026-07.exe", Machine: pe.MachineX86, Timestamp: k.Now(),
		Sections: []pe.Section{{Name: ".text", Data: []byte("genuine update")}}}
	if err := pki.SignImage(update, key, cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	wu.Publish(update)

	l := NewLAN(k, "office", "10.0.0", in)
	h := host.New(k, "WS-1", host.WithInternet(true), host.WithCertStore(store))
	l.Attach(h)

	got, err := CheckForUpdates(l, h)
	if err != nil {
		t.Fatalf("CheckForUpdates: %v", err)
	}
	if got == nil || got.Name != "KB-2026-07.exe" {
		t.Fatalf("installed = %v", got)
	}
	// Second check: already installed, nothing happens.
	got, err = CheckForUpdates(l, h)
	if err != nil || got != nil {
		t.Fatalf("re-check: %v %v", got, err)
	}
}

func TestWindowsUpdateRejectsUnsigned(t *testing.T) {
	k := testKernel()
	in := NewInternet(k)
	store, _, _ := updatePKI(t, k.Now())
	wu := NewWindowsUpdate(in, "198.51.100.50")
	wu.Publish(&pe.File{Name: "evil.exe", Machine: pe.MachineX86, Timestamp: k.Now()})

	l := NewLAN(k, "office", "10.0.0", in)
	h := host.New(k, "WS-1", host.WithInternet(true), host.WithCertStore(store))
	l.Attach(h)
	if _, err := CheckForUpdates(l, h); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("err = %v, want ErrUpdateRejected", err)
	}
}

func TestStartUpdateClientPeriodic(t *testing.T) {
	k := testKernel()
	in := NewInternet(k)
	store, key, cert := updatePKI(t, k.Now())
	wu := NewWindowsUpdate(in, "198.51.100.50")
	l := NewLAN(k, "office", "10.0.0", in)
	h := host.New(k, "WS-1", host.WithInternet(true), host.WithCertStore(store))
	l.Attach(h)

	installed := 0
	h.Dispatcher = func(hh *host.Host, p *host.Process, img *pe.File) { installed++ }
	cancel := StartUpdateClient(l, h, time.Hour)
	defer cancel()

	k.RunFor(30 * time.Minute) // service empty: nothing
	update := &pe.File{Name: "KB1.exe", Machine: pe.MachineX86, Timestamp: k.Now(),
		Sections: []pe.Section{{Name: ".text", Data: []byte("u1")}}}
	if err := pki.SignImage(update, key, cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	wu.Publish(update)
	k.RunFor(3 * time.Hour)
	if installed != 1 {
		t.Fatalf("installed %d updates, want 1", installed)
	}
}

func TestBluetoothScanAndBeacon(t *testing.T) {
	k := testKernel()
	r := NewRadio(k)
	office := "riyadh-office"
	infected := host.New(k, "LAPTOP-1", host.WithHardware(host.Hardware{Bluetooth: true}))
	nearby := host.New(k, "LAPTOP-2", host.WithHardware(host.Hardware{Bluetooth: true}))
	noBT := host.New(k, "DESKTOP", host.WithHardware(host.Hardware{}))
	r.PlaceHost(infected, office)
	r.PlaceHost(nearby, office)
	r.PlaceHost(noBT, office)
	r.PlaceDevice(office, &BTDevice{Name: "Ali's Phone", Kind: "phone", Owner: "ali", Contacts: []string{"+9665xxx"}})
	r.PlaceDevice("elsewhere", &BTDevice{Name: "Far Phone", Kind: "phone"})

	devs := r.Scan(infected)
	if len(devs) != 1 || devs[0].Name != "Ali's Phone" {
		t.Fatalf("Scan = %v", devs)
	}
	if r.Scan(noBT) != nil {
		t.Fatal("host without BT hardware scanned")
	}

	if !r.SetBeacon(nearby, true) {
		t.Fatal("SetBeacon failed")
	}
	if r.SetBeacon(noBT, true) {
		t.Fatal("SetBeacon succeeded without hardware")
	}
	devs = r.Scan(infected)
	if len(devs) != 2 {
		t.Fatalf("Scan after beacon = %v", devs)
	}
	if !r.IsBeaconing(nearby) {
		t.Fatal("IsBeaconing false")
	}
	if len(k.Trace().Filter(sim.CatBluetooth)) == 0 {
		t.Fatal("no bluetooth trace records")
	}
}

func TestScanUnplacedHost(t *testing.T) {
	k := testKernel()
	r := NewRadio(k)
	h := host.New(k, "H", host.WithHardware(host.Hardware{Bluetooth: true}))
	if r.Scan(h) != nil {
		t.Fatal("unplaced host scan should be nil")
	}
}

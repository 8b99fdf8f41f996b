package netsim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/host"
)

// referencePeers recomputes Peers the pre-cache way: sort the node map by
// host name, drop the named host.
func referencePeers(l *LAN, name string) []*host.Host {
	var out []*host.Host
	for _, n := range l.nodes {
		if !strings.EqualFold(n.Host.Name, name) {
			out = append(out, n.Host)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func TestPeersMatchesUncachedReference(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	// Mixed-case, out-of-order names exercise both the sort and the
	// case-insensitive self-exclusion.
	for _, name := range []string{"ws-09", "WS-03", "Srv-01", "ws-01", "WS-10"} {
		l.Attach(host.New(k, name))
	}
	for _, self := range []string{"WS-03", "ws-03", "Srv-01", "absent"} {
		got := l.Peers(self)
		want := referencePeers(l, self)
		if len(got) != len(want) {
			t.Fatalf("Peers(%q) = %d hosts, want %d", self, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Peers(%q)[%d] = %s, want %s", self, i, got[i].Name, want[i].Name)
			}
		}
	}
}

func TestPeersCacheInvalidatedByAttach(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	l.Attach(host.New(k, "WS-1"))
	l.Attach(host.New(k, "WS-3"))
	if got := len(l.Peers("WS-1")); got != 1 {
		t.Fatalf("peers before attach = %d, want 1", got)
	}
	// Attaching after a Peers call must invalidate the cached sorted view
	// and land the new host in sorted position.
	l.Attach(host.New(k, "WS-2"))
	got := l.Peers("WS-1")
	if len(got) != 2 || got[0].Name != "WS-2" || got[1].Name != "WS-3" {
		names := make([]string, len(got))
		for i, h := range got {
			names[i] = h.Name
		}
		t.Fatalf("peers after attach = %v, want [WS-2 WS-3]", names)
	}
	if l.HostCount() != 3 || len(l.Hosts()) != 3 {
		t.Fatalf("host count = %d/%d, want 3", l.HostCount(), len(l.Hosts()))
	}
}

func TestHostsReturnsIndependentSlice(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	l.Attach(host.New(k, "WS-1"))
	l.Attach(host.New(k, "WS-2"))
	hosts := l.Hosts()
	hosts[0] = nil // caller may scribble on its copy
	if got := l.Hosts(); got[0] == nil || got[0].Name != "WS-1" {
		t.Fatal("Hosts() returned the internal cache, not a copy")
	}
}

func TestWPADOrderSurvivesCaching(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	asker := host.New(k, "ASKER")
	l.Attach(asker)
	// Two responders: NetBIOS first-answer-wins must keep picking the
	// alphabetically first one before and after an Attach.
	for _, name := range []string{"resp-b", "resp-a"} {
		n := l.Attach(host.New(k, name))
		me := name
		n.WPADResponder = func(*host.Host) (string, bool) { return me, true }
	}
	if proxy, ok := l.WPADQuery(asker); !ok || proxy != "resp-a" {
		t.Fatalf("WPAD answer = %q/%v, want resp-a", proxy, ok)
	}
	n := l.Attach(host.New(k, "resp-0"))
	n.WPADResponder = func(*host.Host) (string, bool) { return "resp-0", true }
	if proxy, ok := l.WPADQuery(asker); !ok || proxy != "resp-0" {
		t.Fatalf("WPAD answer after attach = %q/%v, want resp-0", proxy, ok)
	}
}

// BenchmarkLANPeers512 is the spread-sweep hot path: one Peers scan per
// infected host per round on an A3-sized 512-host segment. With the
// sorted-view cache this is a single allocation-free linear pass instead
// of a map walk plus sort.
func BenchmarkLANPeers512(b *testing.B) {
	k := testKernel()
	l := NewLAN(k, "fleet", "10.30.0", nil)
	for i := 0; i < 512; i++ {
		l.Attach(host.New(k, fmt.Sprintf("WS-%05d", i+1)))
	}
	l.Peers("WS-00001") // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := l.Peers("WS-00001"); len(got) != 511 {
			b.Fatalf("peers = %d", len(got))
		}
	}
}

// TestPeerAtMatchesPeers pins PeerAt's contract: for every host and
// rotation index it returns exactly Peers(name)[i%len(peers)], without
// building the slice.
func TestPeerAtMatchesPeers(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	var hosts []*host.Host
	for _, name := range []string{"GAMMA", "ALPHA", "DELTA", "BETA", "EPSILON"} {
		h := host.New(k, name)
		l.Attach(h)
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		peers := append([]*host.Host(nil), l.Peers(h.Name)...)
		for i := 0; i < 12; i++ {
			want := peers[i%len(peers)]
			if got := l.PeerAt(h.Name, i); got != want {
				t.Fatalf("PeerAt(%s, %d) = %v, want %s", h.Name, i, got, want.Name)
			}
		}
	}
	if got := l.PeerAt("GHOST", 3); got == nil {
		t.Fatal("unknown name should still rotate over the full host list")
	}
	if got := l.PeerAt("ALPHA", -1); got != nil {
		t.Fatalf("negative index should return nil, got %v", got)
	}
	solo := NewLAN(k, "solo", "10.0.9", nil)
	only := host.New(k, "ONLY")
	solo.Attach(only)
	if got := solo.PeerAt("ONLY", 0); got != nil {
		t.Fatalf("peerless host should get nil, got %v", got)
	}
}

// TestLANNodeCaseInsensitive looks hosts up under other spellings of
// their names and requires the match a strings.ToLower key gives. Names
// with non-ASCII runes take that path: the Kelvin sign folds to an ASCII
// k and the dotted capital I to an ASCII i.
func TestLANNodeCaseInsensitive(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	long := strings.Repeat("Long-", 20) // past Node's stack buffer
	for _, name := range []string{"WS-01", "srv-Mail", "kiosk-K", "\u0130zmir-01", long} {
		l.Attach(host.New(k, name))
	}
	cases := []struct {
		query, want string // want "" for no match
	}{
		{"WS-01", "WS-01"},
		{"ws-01", "WS-01"},
		{"wS-01", "WS-01"},
		{"SRV-MAIL", "srv-Mail"},
		{"KIOSK-k", "kiosk-K"},
		{"kiosk-\u212A", "kiosk-K"},
		{"izmir-01", "\u0130zmir-01"},
		{"IZMIR-01", "\u0130zmir-01"},
		{"\u0130ZMIR-01", "\u0130zmir-01"},
		{strings.ToUpper(long), long},
		{"ws-1", ""},
		{"WS-01 ", ""},
		{"", ""},
		{"ws-01\xff", ""},
	}
	for _, c := range cases {
		got := ""
		if n := l.Node(c.query); n != nil {
			got = n.Host.Name
		}
		if got != c.want {
			t.Errorf("Node(%q) = %q, want %q", c.query, got, c.want)
		}
		if ref := l.nodes[strings.ToLower(c.query)]; ref != l.Node(c.query) {
			t.Errorf("Node(%q) differs from the strings.ToLower lookup", c.query)
		}
	}
}

// TestLANNodeAllocs pins a mixed-case ASCII lookup at zero allocations.
func TestLANNodeAllocs(t *testing.T) {
	k := testKernel()
	l := NewLAN(k, "office", "10.0.0", nil)
	l.Attach(host.New(k, "WS-0042"))
	allocs := testing.AllocsPerRun(100, func() {
		if l.Node("ws-0042") == nil || l.Node("Ws-0042") == nil {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("LAN.Node allocates %.1f objects per lookup, want 0", allocs)
	}
}

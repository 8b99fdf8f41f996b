package netsim

import (
	"testing"

	"repro/internal/host"
	"repro/internal/pe"
	"repro/internal/sim"
)

// mutedTwin is one world of the live/muted twin pair: a LAN with a
// source and a share-open target host, an internet with a local echo
// server, a local server answering like a remote domain, and a remote
// domain whose forward is a no-op.
type mutedTwin struct {
	k      *sim.Kernel
	in     *Internet
	l      *LAN
	h, dst *host.Host
	img    *pe.File
	raw    []byte
}

const (
	twinToolPath = `C:\Windows\tool.exe`
	twinLocalOK  = "ok.example"
	twinRemote   = "hub.example"
)

func newMutedTwin(t *testing.T, muted bool) *mutedTwin {
	t.Helper()
	k := testKernel()
	k.Trace().SetMuted(muted)
	in := NewInternet(k)
	in.RegisterDomain("update.example", "203.0.113.5")
	in.BindServer("203.0.113.5", echoServer())
	in.RegisterDomain(twinLocalOK, "203.0.113.6")
	in.BindServer("203.0.113.6", HandlerFunc(func(*Request) *Response { return OK(nil) }))
	in.RegisterRemoteDomain(twinRemote, "203.0.113.7", func(*Request) {})
	l := NewLAN(k, "office", "10.0.0", in)
	h := host.New(k, "WS-1", host.WithInternet(true))
	dst := host.New(k, "WS-2", host.WithShares(true))
	l.Attach(h)
	l.Attach(dst)
	img := &pe.File{Name: "tool.exe", Machine: pe.MachineX86, Timestamp: k.Now()}
	raw, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return &mutedTwin{k: k, in: in, l: l, h: h, dst: dst, img: img, raw: raw}
}

// TestMutedWorldCountsLikeLiveTwin runs the same traffic through a live
// world and a muted one with no subscriber, which records nothing and
// skips formatting the dispatch, exec, SMB copy, psexec, cross-partition
// queue and Add messages. Both must keep the same metrics; and in the
// muted world each of the three netsim paths allocates no more than the
// work it wraps.
func TestMutedWorldCountsLikeLiveTwin(t *testing.T) {
	run := func(muted bool) *sim.Kernel {
		w := newMutedTwin(t, muted)
		k, l, h := w.k, w.l, w.h
		for i := 0; i < 3; i++ {
			if _, err := l.HTTP(h, &Request{Method: "GET", Host: "update.example", Path: "/v", Body: []byte("abc")}); err != nil {
				t.Fatal(err)
			}
			if _, err := l.HTTP(h, &Request{Method: "POST", Host: twinRemote, Path: "/report", Body: []byte("abc")}); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Execute(w.img, false); err != nil {
				t.Fatal(err)
			}
			if err := l.CopyToShare(h, "WS-2", twinToolPath, w.raw); err != nil {
				t.Fatal(err)
			}
			if err := l.RemoteExec(h, "WS-2", twinToolPath); err != nil {
				t.Fatal(err)
			}
			h.Logf(sim.CatDefense, "av", "scan %d clean", i)
			k.Trace().Add(k.Now(), sim.CatC2, "op", "beacon %d from %s", i, h.Name)
		}
		if _, err := w.in.Dispatch(&Request{Host: "gone.example"}); err == nil {
			t.Fatal("dispatch to an unregistered name succeeded")
		}
		return k
	}
	live, muted := run(false), run(true)
	l, err := live.Metrics().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	m, err := muted.Metrics().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(l) != string(m) {
		t.Fatalf("metrics differ:\nlive\n%s\nmuted\n%s", l, m)
	}
	if n := len(muted.Trace().Events()); n != 0 {
		t.Fatalf("muted world retained %d records", n)
	}
	for _, e := range live.Trace().Events() {
		if e.Msg == "" {
			t.Fatalf("live world left a record without its message: %+v", e)
		}
	}

	// In the muted world the trace text is never built, so each path
	// costs what the work under it costs: the share write, the target's
	// exec, and a dispatch to a local server that answers the same way.
	// The cases run in order; the share write leaves the tool for exec.
	w := newMutedTwin(t, true)
	allocs := func(fn func() error) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
	dispatch := func(dest string) func() error {
		req := &Request{Method: "POST", Host: dest, Path: "/report"}
		return func() error { _, err := w.in.Dispatch(req); return err }
	}
	for _, c := range []struct {
		path      string
		got, work func() error
	}{
		{"CopyToShare",
			func() error { return w.l.CopyToShare(w.h, "WS-2", twinToolPath, w.raw) },
			func() error { return w.dst.FS.WriteShared(twinToolPath, w.raw, 0, w.k.Now()) }},
		{"RemoteExec",
			func() error { return w.l.RemoteExec(w.h, "WS-2", twinToolPath) },
			func() error { _, err := w.dst.ExecuteFile(twinToolPath, true); return err }},
		{"remote-domain forward", dispatch(twinRemote), dispatch(twinLocalOK)},
	} {
		if got, work := allocs(c.got), allocs(c.work); got > work {
			t.Errorf("muted %s: %.0f allocs per call, more than the %.0f of the work it wraps", c.path, got, work)
		}
	}
}

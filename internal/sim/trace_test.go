package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTraceAddAndCount(t *testing.T) {
	tr := NewTrace(16)
	at := Epoch
	tr.Add(at, CatInfect, "host1", "compromised via %s", "LNK")
	tr.Add(at, CatInfect, "host2", "compromised via spooler")
	tr.Add(at, CatWipe, "host1", "MBR overwritten")
	if tr.Count(CatInfect) != 2 {
		t.Fatalf("Count(infect) = %d, want 2", tr.Count(CatInfect))
	}
	if tr.Count(CatWipe) != 1 {
		t.Fatalf("Count(wipe) = %d, want 1", tr.Count(CatWipe))
	}
	if tr.Count(CatExfil) != 0 {
		t.Fatalf("Count(exfil) = %d, want 0", tr.Count(CatExfil))
	}
}

func TestTraceRingRotation(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Add(Epoch.Add(time.Duration(i)*time.Second), CatExec, "a", "event %d", i)
	}
	recs := tr.Events()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Msg != "event 2" || recs[2].Msg != "event 4" {
		t.Fatalf("wrong rotation window: %v", recs)
	}
	if tr.Count(CatExec) != 5 {
		t.Fatalf("counter lost on rotation: %d", tr.Count(CatExec))
	}
}

func TestTraceChronologicalOrder(t *testing.T) {
	tr := NewTrace(10)
	for i := 0; i < 4; i++ {
		tr.Add(Epoch.Add(time.Duration(i)*time.Minute), CatNetwork, "net", "pkt %d", i)
	}
	recs := tr.Events()
	for i := 1; i < len(recs); i++ {
		if recs[i].At.Before(recs[i-1].At) {
			t.Fatalf("records out of order at %d", i)
		}
	}
}

func TestTraceFilter(t *testing.T) {
	tr := NewTrace(10)
	tr.Add(Epoch, CatC2, "flame", "GET_NEWS")
	tr.Add(Epoch, CatExfil, "flame", "ADD_ENTRY 4096 bytes")
	tr.Add(Epoch, CatC2, "flame", "update received")
	got := tr.Filter(CatC2)
	if len(got) != 2 || got[0].Msg != "GET_NEWS" || got[1].Msg != "update received" {
		t.Fatalf("Filter(c2) = %v, want GET_NEWS then update received", got)
	}
}

func TestTraceMutedKeepsCounters(t *testing.T) {
	tr := NewTrace(10)
	tr.SetMuted(true)
	tr.Add(Epoch, CatWipe, "shamoon", "wiped")
	if len(tr.Events()) != 0 {
		t.Fatal("muted trace retained records")
	}
	if tr.Count(CatWipe) != 1 {
		t.Fatal("muted trace lost counter")
	}
}

func TestTraceTinyCapacity(t *testing.T) {
	tr := NewTrace(0) // clamps to 1
	tr.Add(Epoch, CatExec, "a", "one")
	tr.Add(Epoch, CatExec, "a", "two")
	recs := tr.Events()
	if len(recs) != 1 || recs[0].Msg != "two" {
		t.Fatalf("records = %v", recs)
	}
}

// TestSubscribeMatchesEvents pins the one-record contract detection
// relies on: an unmuted trace that never wraps hands its subscribers
// exactly the events Events() later returns, in emission order, whether
// they came from Add, Emit or OpenSpan; a muted trace still feeds its
// subscribers the same stream while retaining nothing.
func TestSubscribeMatchesEvents(t *testing.T) {
	run := func(muted bool) (live, retained []obs.Event) {
		k := NewKernel()
		tr := k.Trace()
		tr.SetMuted(muted)
		tr.Subscribe(func(e obs.Event) { live = append(live, e) })
		tr.Add(k.Now(), CatExec, "WS-1", "exec %s", "a.exe")
		root := k.OpenSpan(CatInfect, "WS-1", "infected", "usb-lnk", obs.T("family", "stuxnet"))
		k.WithCause(Cause{Span: root}, func() {
			tr.Emit(k.Now(), CatSpread, "WS-1", "smb copy", obs.T("target", "WS-2"))
			k.OpenSpan(CatInfect, "WS-2", "infected", "")
			k.Schedule(time.Minute, "beacon", func() {
				tr.Emit(k.Now(), CatC2, "WS-2", "checked in")
			})
		})
		k.Drain(10)
		return live, tr.Events()
	}
	live, retained := run(false)
	if len(live) != 5 {
		t.Fatalf("sink saw %d events, want 5", len(live))
	}
	if !reflect.DeepEqual(live, retained) {
		t.Fatalf("sink stream differs from Events():\nlive     %v\nretained %v", live, retained)
	}
	mutedLive, mutedRetained := run(true)
	if len(mutedRetained) != 0 {
		t.Fatalf("muted trace retained %d events", len(mutedRetained))
	}
	if !reflect.DeepEqual(mutedLive, live) {
		t.Fatalf("muted sink stream differs from unmuted:\nmuted   %v\nunmuted %v", mutedLive, live)
	}
}

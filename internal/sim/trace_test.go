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
	for cat, want := range map[Category]int{CatInfect: 2, CatWipe: 1, CatExfil: 0} {
		if got := len(tr.Filter(cat)); got != want {
			t.Fatalf("%s records = %d, want %d", cat, got, want)
		}
	}
	if got := tr.Filter(CatInfect)[0].Msg; got != "compromised via LNK" {
		t.Fatalf("formatted message = %q", got)
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
	if recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("Seq lost on rotation: %d..%d, want 3..5", recs[0].Seq, recs[2].Seq)
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

// TestMutedTraceRecordsNothing pins what a muted trace with no
// subscriber keeps of the records emitted into it: nothing, not even a
// sequence number, so the first record it keeps once unmuted is Seq 1.
func TestMutedTraceRecordsNothing(t *testing.T) {
	tr := NewTrace(10)
	tr.SetMuted(true)
	tr.Add(Epoch, CatWipe, "shamoon", "wiped %d", 3)
	tr.Emit(Epoch, CatNetwork, "WS-1", "GET", obs.T("dest", "a.example"))
	tr.EmitSpan(Epoch, CatInfect, "WS-1", "infected", 1, 0)
	if len(tr.Events()) != 0 {
		t.Fatal("muted trace retained records")
	}
	tr.SetMuted(false)
	tr.Add(Epoch, CatWipe, "shamoon", "wiped")
	if recs := tr.Events(); len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("records after unmuting = %+v, want one with Seq 1", recs)
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

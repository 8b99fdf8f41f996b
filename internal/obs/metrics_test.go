package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lan.smb.copy")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %g, want 3", c.Value())
	}
	if r.Counter("lan.smb.copy") != c {
		t.Fatal("counter lookup is not get-or-create")
	}
}

func TestCounterNegativeDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("a.b.c").Add(-1)
}

func TestInvalidMetricNamePanics(t *testing.T) {
	for _, name := range []string{"", "Has Caps", "sp ace", "pipe|bad", "brace{x}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", name)
				}
			}()
			NewRegistry().Counter(name)
		}()
	}
}

// TestHistogramBucketBoundaries pins the le (inclusive upper bound)
// semantics at the exact boundary values.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.y.z", []float64{1, 10, 100})
	cases := []struct {
		v      float64
		bucket int
	}{
		{-5, 0}, // below the first bound lands in bucket 0
		{1, 0},  // exactly on a bound is inclusive
		{1.0001, 1},
		{10, 1},
		{99.999, 2},
		{100, 2},
		{100.5, 3}, // overflow -> +Inf bucket
		{1e12, 3},
	}
	for _, c := range cases {
		before := append([]uint64(nil), h.counts...)
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if h.counts[i] != want {
				t.Fatalf("Observe(%g): bucket %d count = %d, want %d", c.v, i, h.counts[i], want)
			}
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
}

func TestHistogramRelayoutPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("a.b.c", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different bounds did not panic")
		}
	}()
	r.Histogram("a.b.c", []float64{1, 3})
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(64, 4, 3)
	if exp[0] != 64 || exp[1] != 256 || exp[2] != 1024 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
}

func TestSnapshotMergeSums(t *testing.T) {
	a := NewRegistry()
	a.Counter("x.y.z").Add(2)
	a.Histogram("h.i.j", []float64{1}).Observe(0.5)
	b := NewRegistry()
	b.Counter("x.y.z").Add(3)
	b.Counter("only.in.b").Inc()
	b.Histogram("h.i.j", []float64{1}).Observe(9)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["x.y.z"] != 5 || s.Counters["only.in.b"] != 1 {
		t.Fatalf("merged counters = %v", s.Counters)
	}
	h := s.Histograms["h.i.j"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 || h.Sum != 9.5 {
		t.Fatalf("merged histogram = %+v", h)
	}

	// A histogram laid out differently is an error naming it, and the
	// merge leaves s unchanged.
	c := NewRegistry()
	c.Counter("x.y.z").Inc()
	c.Histogram("h.i.j", []float64{1, 2}).Observe(0.5)
	before, _ := s.JSON()
	err := s.Merge(c.Snapshot())
	after, _ := s.JSON()
	if err == nil || !strings.Contains(err.Error(), "h.i.j") || !bytes.Equal(after, before) {
		t.Fatalf("merge of a conflicting layout = %v, snapshot changed: %v", err, !bytes.Equal(after, before))
	}
}

func TestSnapshotEncodingsStable(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		// Register in varying orders; output must not care.
		for _, n := range []string{"b.b.b", "a.a.a", "c.c.c"} {
			r.Counter(n).Inc()
		}
		r.Histogram("h.h.h", []float64{1, 2}).Observe(1)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	j1, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("JSON() not stable across identical registries")
	}
	if a, b, c := bytes.Index(j1, []byte(`"a.a.a"`)), bytes.Index(j1, []byte(`"b.b.b"`)), bytes.Index(j1, []byte(`"c.c.c"`)); a < 0 || a > b || b > c {
		t.Fatalf("JSON() not in name order:\n%s", j1)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is +Inf
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen, value-typed copy of a registry. Snapshots merge
// (cross-world and cross-seed aggregation), diff (before/after a phase)
// and encode with stable ordering.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]float64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: append([]uint64(nil), h.counts...),
				Count:  h.count,
				Sum:    h.sum,
			}
		}
	}
	return s
}

// Merge folds other into s: counters and gauges sum, histogram bucket
// counts sum. Histograms present in both must share a bucket layout
// (guaranteed when both sides registered through Registry.Histogram with
// the same fixed bounds); a histogram whose layout differs is an error
// naming it, and s is left unchanged.
func (s *Snapshot) Merge(other Snapshot) error {
	for n, h := range other.Histograms {
		if mine, ok := s.Histograms[n]; ok && !slices.Equal(mine.Bounds, h.Bounds) {
			return fmt.Errorf("obs: merge histogram %s: layouts differ (%d bounds vs %d)", n, len(mine.Bounds), len(h.Bounds))
		}
	}
	for n, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]float64)
		}
		s.Counters[n] += v
	}
	for n, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64)
		}
		s.Gauges[n] += v
	}
	for n, h := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot)
		}
		mine, ok := s.Histograms[n]
		if !ok {
			s.Histograms[n] = HistogramSnapshot{
				Bounds: append([]float64(nil), h.Bounds...),
				Counts: append([]uint64(nil), h.Counts...),
				Count:  h.Count,
				Sum:    h.Sum,
			}
			continue
		}
		for i, c := range h.Counts {
			mine.Counts[i] += c
		}
		mine.Count += h.Count
		mine.Sum += h.Sum
		s.Histograms[n] = mine
	}
	return nil
}

// Diff returns s minus base: counter deltas, histogram bucket deltas,
// and s's gauge levels (gauges are points in time, not rates). Metrics
// absent from base count as zero there.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	out := Snapshot{}
	for n, v := range s.Counters {
		if out.Counters == nil {
			out.Counters = make(map[string]float64)
		}
		out.Counters[n] = v - base.Counters[n]
	}
	for n, v := range s.Gauges {
		if out.Gauges == nil {
			out.Gauges = make(map[string]float64)
		}
		out.Gauges[n] = v
	}
	for n, h := range s.Histograms {
		if out.Histograms == nil {
			out.Histograms = make(map[string]HistogramSnapshot)
		}
		d := HistogramSnapshot{
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]uint64(nil), h.Counts...),
			Count:  h.Count,
			Sum:    h.Sum,
		}
		if b, ok := base.Histograms[n]; ok {
			if len(b.Bounds) != len(h.Bounds) {
				panic(fmt.Sprintf("obs: diff histogram %s: layouts differ", n))
			}
			for i := range d.Counts {
				d.Counts[i] -= b.Counts[i]
			}
			d.Count -= b.Count
			d.Sum -= b.Sum
		}
		out.Histograms[n] = d
	}
	return out
}

// fnum renders a float with the shortest round-trip representation so
// integral counters read as integers.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders the snapshot as a stable, sorted, line-oriented listing:
//
//	counter lan.smb.copy 42
//	gauge plant.centrifuges.spinning 24
//	histogram cnc.entry.bytes count=3 sum=4096 le64=0 ... le+Inf=0
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %s\n", n, fnum(s.Counters[n]))
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %s\n", n, fnum(s.Gauges[n]))
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s", n, h.Count, fnum(h.Sum))
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, " le%s=%d", fnum(bound), h.Counts[i])
		}
		fmt.Fprintf(&b, " le+Inf=%d\n", h.Counts[len(h.Bounds)])
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON. encoding/json sorts map
// keys, so the output is byte-stable for equal snapshots.
func (s Snapshot) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

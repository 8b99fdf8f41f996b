package obs

import (
	"encoding/json"
	"fmt"
	"slices"
)

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is +Inf
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen, value-typed copy of a registry. Snapshots merge
// (cross-world and cross-seed aggregation) and encode with stable
// ordering.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
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

// Merge folds other into s: counters sum, histogram bucket counts sum.
// Histograms present in both must share a bucket layout (guaranteed
// when both sides registered through Registry.Histogram with the same
// fixed bounds); a histogram whose layout differs is an error
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

// JSON renders the snapshot as indented JSON. encoding/json sorts map
// keys, so the output is byte-stable for equal snapshots.
func (s Snapshot) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

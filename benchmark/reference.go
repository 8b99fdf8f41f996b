package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// referenceNominal is how long one reference computation takes on the
// reference box (go1.24.0 linux/amd64, 2 hardware threads) when it is
// quiet. Each rep's end-to-end timings are scaled by the machineSpeed
// measured around it, so they read as seconds at that speed: on a box
// shared with other tenants, whose speed drifts by up to 1.8x over
// minutes, the drift would otherwise dominate the spread of a metric
// across runs.
const referenceNominal = 22 * time.Millisecond

// reference is a fixed computation that calls no code of the range, timed
// around every untraced timed rep to gauge how fast the machine runs at
// that moment. It hashes, looks up a map and sorts: compute and memory
// access as the workloads mix them. It allocates nothing after
// newReference, so a workload's heap cannot slow it through garbage
// collection.
type reference struct {
	buf    []byte
	keys   []string
	counts map[string]int
	xs, ys []int
	sink   int
}

// machineSpeed returns referenceNominal over the reference time measured
// now: 0.5 when the machine runs at half the reference box's quiet speed.
// One copy of the reference runs on each of the GOMAXPROCS threads at
// once, because every workload uses them all: the fleets advance two
// partitions at a time, and all of them collect garbage beside the work.
// A thread that other tenants take away slows the copies as it slows a
// rep. The references' buffers are garbage once it returns, so the next
// rep's first GC frees them.
func machineSpeed() float64 {
	refs := make([]*reference, runtime.GOMAXPROCS(0))
	for i := range refs {
		refs[i] = newReference()
	}
	runtime.GC() // no collection runs while the reference is timed
	return float64(referenceNominal) / float64(timeRefs(refs))
}

func newReference() *reference {
	r := &reference{
		buf:    make([]byte, 1<<20),
		counts: make(map[string]int),
		xs:     make([]int, 200000),
		ys:     make([]int, 200000),
	}
	for i := 0; i < 100000; i++ {
		r.keys = append(r.keys, strconv.Itoa(i%40000))
		r.counts[r.keys[i]] = 0
	}
	for i := range r.xs {
		r.xs[i] = (i * 7919) % 200003
	}
	return r
}

// timeRefs returns the median of nine timings of every reference computing
// at once, about 0.3 s in all: the machine's speed jitters over tens of
// milliseconds. The fastest timing would miss the time other tenants take
// from the threads, which a rep loses too.
func timeRefs(refs []*reference) time.Duration {
	var ts [9]float64
	for i := range ts {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, r := range refs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.compute()
			}()
		}
		wg.Wait()
		ts[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ts[:]))
}

func (r *reference) compute() {
	for j := 0; j < 4; j++ {
		sum := sha256.Sum256(r.buf)
		r.sink += int(sum[0])
	}
	for _, k := range r.keys {
		r.counts[k]++
	}
	copy(r.ys, r.xs)
	sort.Ints(r.ys)
	r.sink += r.ys[7]
}

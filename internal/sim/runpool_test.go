package sim

import (
	"fmt"
	"testing"
)

// TestRunPoolRelaysLowestPanic: two jobs panic, yet every job runs and
// every other job writes its slot; after the join the caller recovers
// the lower-index panic, at every width.
func TestRunPoolRelaysLowestPanic(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 2, 7} {
		ran := make([]bool, n)
		slots := make([]int, n)
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			RunPool(n, workers, func(i int) {
				ran[i] = true
				if i == 3 || i == 8 {
					panic(fmt.Sprintf("job %d", i))
				}
				slots[i] = i * i
			})
		}()
		if recovered != "job 3" {
			t.Errorf("workers=%d: caller recovered %v, want the lowest-index panic %q", workers, recovered, "job 3")
		}
		for i := 0; i < n; i++ {
			if !ran[i] {
				t.Errorf("workers=%d: job %d never ran", workers, i)
			}
			if i != 3 && i != 8 && slots[i] != i*i {
				t.Errorf("workers=%d: slot %d = %d, want %d", workers, i, slots[i], i*i)
			}
		}
	}
}

package sim

import "sync"

// RunPool executes run(0..n-1) across at most workers goroutines fed
// from one job channel. workers <= 1 degenerates to a plain sequential
// loop on the caller's goroutine. Callers that need deterministic output
// write each result into slot i and fold the slots in index order after
// RunPool returns, so the worker count never changes a byte.
//
// Every job runs even if another panics: each job's panic is recovered
// into its own slot, and after the join the lowest-index panic is raised
// again on the caller's goroutine, at any width. A panic on a bare pool
// goroutine would kill the process; relayed, it reaches the caller's own
// recover (the experiment runner's, for work inside an experiment).
func RunPool(n, workers int, run func(i int)) {
	panics := make([]any, n)
	job := func(i int) {
		defer func() { panics[i] = recover() }()
		run(i)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					job(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

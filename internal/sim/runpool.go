package sim

import "sync"

// RunPool executes run(0..n-1) across at most workers goroutines fed
// from one job channel. workers <= 1 degenerates to a plain sequential
// loop on the caller's goroutine. Callers that need deterministic output
// write each result into slot i and fold the slots in index order after
// RunPool returns, so the worker count never changes a byte.
func RunPool(n, workers int, run func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

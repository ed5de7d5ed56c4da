package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS). It is the one concurrency primitive the
// repository fans out on: experiments.RunAll (and through it the
// replicated grids) and the table regenerators share it.
//
// A panic inside fn is captured — it fails that task, not the process — and
// surfaces as an error carrying the task index and stack. Cancelling ctx
// stops the dispatch of new tasks; in-flight tasks finish. ForEach returns
// the joined task errors plus the context error, nil when everything ran.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := protect(fn, i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// protect runs one task, converting a panic into an error.
func protect(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: task %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

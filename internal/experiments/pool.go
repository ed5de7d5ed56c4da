package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// forEach runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines. It is the one concurrency primitive the experiments fan out
// on: RunAll (and through it the replicated grids) and the table
// regenerators share it through parallelEach.
//
// A panic inside fn is captured — it fails that task, not the process — and
// surfaces as an error carrying the task index and stack. forEach returns
// the joined task errors, nil when every task succeeded.
func forEach(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
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
				if i >= n {
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
	return errors.Join(errs...)
}

// protect runs one task, converting a panic into an error.
func protect(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: task %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// parallelEach runs fn(i) for i in [0, n) on the shared worker pool,
// re-raising any captured panic once the other tasks finish.
func parallelEach(n int, fn func(i int)) {
	if err := forEach(n, func(i int) error {
		fn(i)
		return nil
	}); err != nil {
		panic(err)
	}
}

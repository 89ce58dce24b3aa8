// Package runner executes independent experiment jobs on a worker pool.
//
// Every experiment (and every sweep point) owns a private sim.Engine, so runs
// are embarrassingly parallel; the only shared state is the process-wide
// train.Run memoization cache, which is concurrency-safe. The runner's job is
// to reclaim that parallelism without giving up the serial contract: output
// appears in submission order, byte-identical to running the jobs one after
// another, and the error reported is the first one in job order.
package runner

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ClampParallel sanitizes a -parallel flag value: zero and negative values
// request no concurrency, so they clamp to 1 (serial). Command-line tools
// pass flag input through this instead of handing it to Map/Run directly,
// whose parallel <= 0 means "use GOMAXPROCS" — the wrong reading of an
// explicit `-parallel 0`.
func ClampParallel(p int) int {
	if p < 1 {
		return 1
	}
	return p
}

// Job is one independently executable unit of work producing output.
type Job struct {
	ID  string
	Run func(w io.Writer) error
}

// Map runs fn(0..n-1) on a pool of at most parallel workers and returns the
// lowest-index error. Indices are dispatched in order; once any invocation
// fails, no new indices are started (in-flight ones finish), mirroring a
// serial loop that stops at the first failure. A panicking invocation fails
// with an error carrying the panic value and stack instead of taking the
// process down. parallel <= 0 selects GOMAXPROCS.
func Map(parallel, n int, fn func(i int) error) error {
	errs := make([]error, n)
	mapInto(parallel, n, fn, errs, nil)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mapInto is the pool core shared by Map and Run: it fills errs[i] for every
// dispatched index and invokes done(i) as each index finishes.
func mapInto(parallel, n int, fn func(i int) error, errs []error, done func(i int)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(fn, i)
			if done != nil {
				done(i)
			}
			if errs[i] != nil {
				return
			}
		}
		return
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes done callbacks
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() != 0 {
					return
				}
				err := call(fn, i)
				if err != nil {
					failed.Store(1)
				}
				mu.Lock()
				errs[i] = err
				if done != nil {
					done(i)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// call runs fn(i), turning a panic into an error that carries the panic
// value and the panicking goroutine's stack. Workers are goroutines of their
// own, so an unrecovered panic there would end the process, whoever called
// Map.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("runner: job %d panicked: %v\n%s", i, v, debug.Stack())
		}
	}()
	return fn(i)
}

// Run executes jobs on a worker pool. Each job writes to a private buffer;
// completed buffers are flushed to out in submission order as soon as the
// contiguous prefix allows, so the combined output is byte-identical to a
// serial run regardless of completion order. On failure the outputs of all
// jobs preceding the first (in job order) failure are flushed, then that
// job's partial output, and its error is returned — exactly the bytes a
// serial run would have produced before stopping.
func Run(out io.Writer, parallel int, jobs []Job) error {
	bufs := make([]bytes.Buffer, len(jobs))
	errs := make([]error, len(jobs))
	done := make([]bool, len(jobs))
	flushed := 0
	var firstErr error
	stopped := false
	mapInto(parallel, len(jobs), func(i int) error {
		return jobs[i].Run(&bufs[i])
	}, errs, func(i int) {
		// Runs under the pool lock in completion order: flush the
		// contiguous finished prefix, stopping at the first failed job.
		done[i] = true
		for flushed < len(jobs) && done[flushed] && !stopped {
			out.Write(bufs[flushed].Bytes())
			bufs[flushed] = bytes.Buffer{} // release memory early
			if errs[flushed] != nil {
				firstErr = errs[flushed]
				stopped = true
			}
			flushed++
		}
	})
	return firstErr
}

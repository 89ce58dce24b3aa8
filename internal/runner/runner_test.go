package runner_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llmbw/internal/core"
	"llmbw/internal/runner"
	"llmbw/internal/train"
)

// TestRunFlushesInSubmissionOrder: jobs finishing out of order must still
// produce output in submission order.
func TestRunFlushesInSubmissionOrder(t *testing.T) {
	jobs := make([]runner.Job, 6)
	for i := range jobs {
		i := i
		jobs[i] = runner.Job{ID: fmt.Sprint(i), Run: func(w io.Writer) error {
			// Earlier jobs sleep longer, so completion order is reversed.
			time.Sleep(time.Duration(len(jobs)-i) * 10 * time.Millisecond)
			fmt.Fprintf(w, "job %d\n", i)
			return nil
		}}
	}
	var buf bytes.Buffer
	if err := runner.Run(&buf, 6, jobs); err != nil {
		t.Fatal(err)
	}
	want := "job 0\njob 1\njob 2\njob 3\njob 4\njob 5\n"
	if buf.String() != want {
		t.Fatalf("out of order output:\n%s", buf.String())
	}
}

// TestRunStopsAtFirstErrorInJobOrder: the returned error and flushed bytes
// must match a serial run that stops at the first failure — even when a later
// job has already completed successfully in parallel.
func TestRunStopsAtFirstErrorInJobOrder(t *testing.T) {
	boom := errors.New("boom")
	jobs := []runner.Job{
		{ID: "0", Run: func(w io.Writer) error {
			time.Sleep(30 * time.Millisecond)
			fmt.Fprintln(w, "zero")
			return nil
		}},
		{ID: "1", Run: func(w io.Writer) error {
			fmt.Fprintln(w, "one-partial")
			return boom
		}},
		{ID: "2", Run: func(w io.Writer) error {
			fmt.Fprintln(w, "two")
			return nil
		}},
	}
	var buf bytes.Buffer
	err := runner.Run(&buf, 3, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	want := "zero\none-partial\n"
	if buf.String() != want {
		t.Fatalf("want %q, got %q", want, buf.String())
	}
}

// TestMapReturnsLowestIndexError and stops dispatching new indices after a
// failure.
func TestMapReturnsLowestIndexError(t *testing.T) {
	var started atomic.Int64
	err := runner.Map(4, 100, func(i int) error {
		started.Add(1)
		time.Sleep(time.Millisecond)
		return fmt.Errorf("fail %d", i)
	})
	if err == nil || err.Error() != "fail 0" {
		t.Fatalf("want fail 0, got %v", err)
	}
	if n := started.Load(); n > 8 {
		t.Fatalf("kept dispatching after failure: %d indices started", n)
	}
}

func TestMapSerialFastPath(t *testing.T) {
	var order []int
	err := runner.Map(1, 5, func(i int) error {
		order = append(order, i)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("want stop, got %v", err)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("serial path ran out of order or past the failure: %v", order)
	}
}

// panicCase is a batch whose index 1 panics after writing partial output.
// Index 0 succeeds; on a pool it returns only after index 1 has panicked, so
// the pool has recorded the failure before any worker could claim a later
// index. started counts the indices past 1 that ran.
type panicCase struct {
	parallel  int
	panicking chan struct{}
	started   atomic.Int64
}

func newPanicCase(parallel int) *panicCase {
	return &panicCase{parallel: parallel, panicking: make(chan struct{})}
}

func (pc *panicCase) job(i int, w io.Writer) error {
	switch i {
	case 0:
		if pc.parallel > 1 {
			<-pc.panicking
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Fprintln(w, "zero")
	case 1:
		fmt.Fprintln(w, "one-partial")
		close(pc.panicking)
		panic("boom")
	default:
		pc.started.Add(1)
	}
	return nil
}

// checkPanicErr requires err to carry the panic value and a goroutine stack.
func checkPanicErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("panicking job returned no error")
	}
	if msg := err.Error(); !strings.Contains(msg, "panicked: boom") || !strings.Contains(msg, "goroutine ") {
		t.Fatalf("error lacks the panic value or its stack: %q", msg)
	}
}

// TestMapRecoversPanic: a panicking index fails the call with an error
// instead of ending the process, serially and on a pool, and no later index
// starts.
func TestMapRecoversPanic(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		pc := newPanicCase(parallel)
		err := runner.Map(parallel, 6, func(i int) error { return pc.job(i, io.Discard) })
		checkPanicErr(t, err)
		if n := pc.started.Load(); n != 0 {
			t.Errorf("parallel=%d: %d indices after the panic started", parallel, n)
		}
	}
}

// TestRunRecoversPanic: Run returns a panicking job's error after flushing
// the output of every earlier job and the panicking job's partial output,
// exactly as for a job that returns an error, and starts no later job.
func TestRunRecoversPanic(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		pc := newPanicCase(parallel)
		jobs := make([]runner.Job, 6)
		for i := range jobs {
			i := i
			jobs[i] = runner.Job{ID: fmt.Sprint(i), Run: func(w io.Writer) error { return pc.job(i, w) }}
		}
		var buf bytes.Buffer
		err := runner.Run(&buf, parallel, jobs)
		checkPanicErr(t, err)
		if want := "zero\none-partial\n"; buf.String() != want {
			t.Errorf("parallel=%d: flushed %q, want %q", parallel, buf.String(), want)
		}
		if n := pc.started.Load(); n != 0 {
			t.Errorf("parallel=%d: %d jobs after the panic started", parallel, n)
		}
	}
}

// TestParallelMatchesSerialByteForByte is the determinism guarantee the
// -parallel flag rests on: running fig3, table4 and table5 on a 4-worker pool
// must produce exactly the bytes of a serial run. The memoization cache is
// reset between the two passes so both simulate from scratch.
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiment simulations")
	}
	opt := core.Options{Iterations: 2, Warmup: 1, PatternSeconds: 8, StressSeconds: 3}
	ids := []string{"fig3", "table4", "table5"}

	jobs := make([]runner.Job, len(ids))
	for i, id := range ids {
		e, err := core.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = runner.Job{ID: e.ID, Run: func(w io.Writer) error {
			fmt.Fprintf(w, "\n######## %s — %s ########\n", e.ID, e.Title)
			return e.Run(w, opt)
		}}
	}

	train.ResetRunCache()
	var serial bytes.Buffer
	for _, j := range jobs {
		if err := j.Run(&serial); err != nil {
			t.Fatalf("serial %s: %v", j.ID, err)
		}
	}

	train.ResetRunCache()
	var par bytes.Buffer
	if err := runner.Run(&par, 4, jobs); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(serial.Bytes(), par.Bytes()) {
		t.Fatalf("parallel output diverges from serial:\nserial %d bytes, parallel %d bytes",
			serial.Len(), par.Len())
	}
}

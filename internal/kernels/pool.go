// Package kernels is the leaf under every compute hot path: the shared
// persistent worker pool (this file), the process's one CPU-feature decision
// (UseAVX2, cpu_amd64.go) and the two vector kernels of the training step's
// tail (AddInto and MomentumStep, vec.go).
//
// The pool is behind GEMM tiles, conv batch chunks and pooling/normalization
// loops. One pool serves the whole process: device goroutines, the
// reactive pipeline, and nested kernel calls all dispatch onto the same
// fixed set of workers instead of spawning goroutines per call.
//
// Design rules:
//
//   - Fork-join with caller participation. Run publishes a job to the idle
//     workers and then executes task indices itself until none remain, so a
//     Run issued from inside another Run's task (nested parallelism — a
//     conv batch chunk calling Gemm) always makes progress even when every
//     worker is busy: the nested caller simply computes its own tiles
//     inline. No Run can deadlock waiting for a worker.
//
//   - Determinism is the caller's contract, made easy: tasks must write
//     disjoint output ranges (then any schedule is bitwise-deterministic),
//     or accumulate into per-chunk partial buffers over a partition that
//     does NOT depend on the worker count — GradChunks is that fixed
//     partition rule — and fold the partials in chunk order afterwards.
//     Which goroutine runs which index is scheduling noise either way.
//
//   - Dispatch allocates nothing: Run publishes the caller's func value as
//     it is, RunRange publishes its range in the job descriptor instead of
//     wrapping it in a closure, and descriptors recycle through a fixed free
//     list that no garbage collection empties.
package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the pool size; beyond this the scalar kernels are memory-
// bound and extra goroutines only add fork-join latency.
const maxWorkers = 64

// gradChunkCap is the fixed upper bound on GradChunks partitions. It is a
// constant — never derived from the worker count — so gradient folds are
// bitwise identical whether the pool runs 1-wide or GOMAXPROCS-wide.
const gradChunkCap = 16

// pool is the process-wide worker set, started on first use. The parked
// goroutine count is fixed at maxWorkers-1 (idle workers cost a few KiB of
// stack each and no CPU); how many of them a Run actually enlists is the
// separate, adjustable width below — so raising GOMAXPROCS after startup
// still widens the kernels.
var (
	poolOnce sync.Once
	poolJobs chan *job

	// width is the active parallelism target (helpers offered a job + the
	// caller). Zero means "track GOMAXPROCS"; SetWorkers pins it for
	// single-worker baselines and the worker-count equivalence tests.
	width atomic.Int64
)

func startPool() {
	// maxWorkers-1 helpers: the caller always participates, so the caller
	// plus helpers saturate maxWorkers lanes.
	poolJobs = make(chan *job, maxWorkers)
	for i := 1; i < maxWorkers; i++ {
		go func() {
			for j := range poolJobs {
				j.run()
				j.release()
			}
		}()
	}
}

// curWidth resolves the active width: an explicit SetWorkers pin, otherwise
// the live GOMAXPROCS (clamped to maxWorkers).
func curWidth() int {
	if w := width.Load(); w > 0 {
		return int(w)
	}
	w := runtime.GOMAXPROCS(0)
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// Workers reports the current parallelism width (including the caller).
func Workers() int {
	poolOnce.Do(startPool)
	return curWidth()
}

// SetWorkers pins the parallelism width (clamped to [1, 64]) and returns
// the previous effective value. It exists for the single-worker benchmark
// baseline and the worker-count equivalence tests; the persistent workers
// keep running — a width of 1 simply stops offering them jobs, so every Run
// executes entirely on its caller. SetWorkers(0) releases the pin back to
// tracking GOMAXPROCS.
func SetWorkers(n int) int {
	poolOnce.Do(startPool)
	prev := curWidth()
	if n < 0 {
		n = 0
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	width.Store(int64(n))
	return prev
}

// job is one Run or RunRange invocation: tasks [0, n) claimed by atomic
// counter, with a countdown the caller waits on. refs tracks the goroutines
// that may touch the job (claimers), so descriptors recycle only after the
// last one exits.
type job struct {
	fn func(int)
	// rangeFn and total are RunRange's: task c runs rangeFn over chunk c of
	// n contiguous chunks of [0, total).
	rangeFn func(lo, hi int)
	total   int
	n       int64
	next    atomic.Int64
	left    atomic.Int64 // unfinished tasks
	refs    atomic.Int64 // goroutines still inside run()
	wake    chan struct{}
}

// freeJobs is the descriptor free list. A descriptor is outstanding while a
// caller runs it, a helper holds it (maxWorkers-1) or it waits in poolJobs
// (maxWorkers) — a helper the scheduler has not run yet keeps one long after
// its caller returned — so the list holds 4×maxWorkers; one released into a
// full list is dropped.
var freeJobs = make(chan *job, 4*maxWorkers)

// run claims and executes task indices until none remain.
func (j *job) run() {
	n := j.n
	for {
		i := j.next.Add(1) - 1
		if i >= n {
			return
		}
		if j.rangeFn != nil {
			j.rangeFn(ChunkBounds(j.total, int(n), int(i)))
		} else {
			j.fn(int(i))
		}
		if j.left.Add(-1) == 0 {
			select {
			case j.wake <- struct{}{}:
			default:
			}
		}
	}
}

// release drops a claimer reference, returning the descriptor to the free
// list once the caller and every helper are done with it.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.fn, j.rangeFn = nil, nil
		select {
		case freeJobs <- j:
		default:
		}
	}
}

// Run executes fn(i) for every i in [0, n), distributing indices across the
// pool. It returns only after all n calls have completed. fn must be safe
// for concurrent invocation with distinct i; Run gives no ordering guarantee
// between indices. Calling Run from inside a task is legal (the nested call
// runs inline on busy pools).
func Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	poolOnce.Do(startPool)
	w := curWidth()
	if n == 1 || w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	dispatch(n, w, fn, nil, 0)
}

// dispatch publishes a job of n tasks — fn's, or rangeFn's over total — to
// the caller and up to w-1 idle helpers, returning once all have completed.
func dispatch(n, w int, fn func(int), rangeFn func(lo, hi int), total int) {
	helpers := w - 1 // the caller is the w-th lane
	if helpers > n-1 {
		helpers = n - 1
	}
	var j *job
	select {
	case j = <-freeJobs:
	default:
		j = &job{wake: make(chan struct{}, 1)}
	}
	j.fn, j.rangeFn, j.total, j.n = fn, rangeFn, total, int64(n)
	j.next.Store(0)
	j.left.Store(int64(n))
	select {
	case <-j.wake: // drain a stale wakeup from a prior use
	default:
	}
	j.refs.Store(1) // the caller's reference
	for i := 0; i < helpers; i++ {
		// The ref is taken BEFORE the send: a helper may receive, run, and
		// release before this loop's next iteration.
		j.refs.Add(1)
		select {
		case poolJobs <- j:
		default:
			// Pool saturated (nested or concurrent Runs): don't block —
			// the caller and already-enlisted helpers cover the tasks.
			j.refs.Add(-1)
			i = helpers
		}
	}
	j.run()
	// Helpers may still be finishing claimed tasks; wait for the count.
	for j.left.Load() != 0 {
		<-j.wake
	}
	j.release()
}

// ChunkBounds returns the [lo, hi) bounds of chunk i when total items are
// split into chunks nearly-equal contiguous pieces (the first total%chunks
// chunks get one extra item). The bounds depend on (total, chunks, i) only,
// never on the worker count — the fixed partition a GradChunks fold needs.
func ChunkBounds(total, chunks, i int) (lo, hi int) {
	base := total / chunks
	rem := total % chunks
	lo = i*base + minInt(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// RunRange splits [0, total) into contiguous ranges of at least grain items
// and executes fn(lo, hi) for each. For elementwise kernels only: fn must
// write disjoint outputs with no cross-range reduction, so the (worker-count
// -dependent) range boundaries cannot affect results.
func RunRange(total, grain int, fn func(lo, hi int)) {
	if total <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := Workers()
	if max := (total + grain - 1) / grain; chunks > max {
		chunks = max
	}
	if chunks <= 1 {
		fn(0, total)
		return
	}
	dispatch(chunks, curWidth(), nil, fn, total)
}

// GradChunks is the fixed batch-partition rule for deterministic parallel
// gradient accumulation: n items fold through min(n, 16) per-chunk partial
// buffers, combined in chunk order. The count depends only on n — never on
// GOMAXPROCS or SetWorkers — which is what keeps weight gradients bitwise
// identical across worker counts (the repo-wide determinism invariant).
func GradChunks(n int) int {
	if n < gradChunkCap {
		if n < 1 {
			return 1
		}
		return n
	}
	return gradChunkCap
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

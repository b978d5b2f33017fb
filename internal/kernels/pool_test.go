package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoversAllIndices: every index in [0, n) runs exactly once, at every
// pool width.
func TestRunCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, maxWorkers} {
		prev := SetWorkers(w)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			counts := make([]int32, n)
			Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("width %d n %d: index %d ran %d times", w, n, i, c)
				}
			}
		}
		SetWorkers(prev)
	}
	SetWorkers(0)
}

// TestRunNested: a Run issued from inside another Run's task must complete
// (inline on saturated pools) — the conv-chunk-calls-Gemm shape.
func TestRunNested(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	const outer, inner = 8, 16
	var total atomic.Int64
	Run(outer, func(i int) {
		Run(inner, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested tasks ran %d times, want %d", got, outer*inner)
	}
}

// TestConcurrentRuns: independent Runs from many goroutines (the dpt device
// engines) share the pool without losing or duplicating tasks.
func TestConcurrentRuns(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	const callers, n = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int32, n)
			Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, v := range counts {
				if v != 1 {
					t.Errorf("index %d ran %d times", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSetWorkers: pin semantics, clamping, and release back to GOMAXPROCS
// tracking.
func TestSetWorkers(t *testing.T) {
	orig := SetWorkers(0)
	defer SetWorkers(orig)
	if prev := SetWorkers(3); prev < 1 {
		t.Fatalf("previous width %d, want >= 1", prev)
	}
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", w)
	}
	if prev := SetWorkers(maxWorkers + 10); prev != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", prev)
	}
	if w := Workers(); w != maxWorkers {
		t.Fatalf("Workers() = %d, want clamp to %d", w, maxWorkers)
	}
	SetWorkers(0)
	if w := Workers(); w < 1 || w > maxWorkers {
		t.Fatalf("unpinned Workers() = %d out of range", w)
	}
}

// TestChunkBounds: chunks tile [0, total) exactly, in order, with sizes
// differing by at most one.
func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ total, chunks int }{{10, 3}, {16, 16}, {7, 2}, {100, 16}, {5, 5}} {
		next := 0
		for i := 0; i < tc.chunks; i++ {
			lo, hi := ChunkBounds(tc.total, tc.chunks, i)
			if lo != next {
				t.Fatalf("total %d chunks %d: chunk %d starts at %d, want %d", tc.total, tc.chunks, i, lo, next)
			}
			if size := hi - lo; size != tc.total/tc.chunks && size != tc.total/tc.chunks+1 {
				t.Fatalf("total %d chunks %d: chunk %d size %d", tc.total, tc.chunks, i, size)
			}
			next = hi
		}
		if next != tc.total {
			t.Fatalf("total %d chunks %d: covered %d", tc.total, tc.chunks, next)
		}
	}
}

// TestGradChunks: fixed rule, never worker-count dependent.
func TestGradChunks(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 1}, {1, 1}, {4, 4}, {16, 16}, {17, 16}, {1024, 16}} {
		if got := GradChunks(tc.n); got != tc.want {
			t.Fatalf("GradChunks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	prev := SetWorkers(2)
	if got := GradChunks(1024); got != 16 {
		t.Fatalf("GradChunks(1024) = %d under SetWorkers(2), want 16", got)
	}
	SetWorkers(prev)
}

// TestRunRangeCovers: ranges tile [0, total) exactly with no overlap.
func TestRunRangeCovers(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	for _, tc := range []struct{ total, grain int }{{0, 16}, {5, 16}, {100, 8}, {1 << 16, 4096}} {
		counts := make([]int32, tc.total)
		RunRange(tc.total, tc.grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("total %d grain %d: index %d covered %d times", tc.total, tc.grain, i, c)
			}
		}
	}
}

// TestRunRangeAllocatesNothing: RunRange publishes its range in the job
// descriptor instead of a closure, and descriptors recycle through the free
// list, so once warmed up a call at width 2 allocates nothing. The helper a
// call wakes holds the descriptor until the scheduler runs it, so the caller
// yields after each call, as a training step's callers do whenever they
// block; a caller that never yields would draw a fresh descriptor a call.
func TestRunRangeAllocatesNothing(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	fn := func(lo, hi int) {}
	call := func() {
		RunRange(1<<12, 16, fn)
		runtime.Gosched()
	}
	call()
	if n := testing.AllocsPerRun(100, call); n != 0 {
		t.Fatalf("RunRange allocates %v times a call", n)
	}
}

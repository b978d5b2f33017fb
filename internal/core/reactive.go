package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/dpt"
)

// This file is the bucket-major order of Learner.Step (Config.Overlap): the
// same pack → exchange → apply stages as the stage-major order, run per
// bucket underneath backward so inter-node communication hides under
// compute.
//
//	backward (per device, back-to-front)
//	   └─ readiness hook per (device, param)
//	        └─ tracker: bucket's contributions complete?
//	             └─ packer: pack the bucket, submit to allreduce.Stream
//	                (launch order: descending bucket index, agreed across
//	                ranks)
//	                  └─ stream: compress → Isend/Recv → decode+sum
//	                       └─ collector: close the residual, apply
//
// Every stage performs element-for-element the same arithmetic as the
// stage-major order, in the same order (devices in id order, ranks in rank
// order), so the final parameters are bitwise identical — a test asserts it
// across codecs.

// bucketPlan is the static bucket layout of one learner's flattened
// gradient — fixed-size buckets plus the param→bucket incidence that turns
// per-param readiness into per-bucket readiness — and the plumbing between
// the order's goroutines. All of it is built once, and the packer and the
// collector run from NewLearner to Close: the learner runs one step at a
// time, so one set suffices and a step allocates none of it.
type bucketPlan struct {
	lo, hi    []int   // bucket b covers [lo[b], hi[b])
	bucketsOf [][]int // param -> overlapping bucket indices
	contribs  []int   // bucket -> (param × device) readiness hooks it waits for

	// Per-step countdown scratch: pending[b] is the bucket's outstanding
	// contributions, reset at the top of every step (guarded by mu — hooks
	// from different devices run concurrently), isReady the packer's
	// out-of-order arrival mask, cleared by the packer at every step's end.
	mu      sync.Mutex
	pending []int
	isReady []bool

	// hook is the tracker: it counts down each bucket's contributions as
	// readiness arrives from the device goroutines and queues completed
	// buckets on ready. Capacity numBuckets+1 — every bucket once plus
	// endOfStep — so a send never blocks, under mu or otherwise. Close closes
	// ready, which stops the packer, which closes the Stream, which stops the
	// collector; stopped counts the two down.
	hook    dpt.GradHook
	ready   chan int
	stopped sync.WaitGroup
	// packErr and collErr carry the packer's and collector's verdicts back
	// to the stepping goroutine (one send per step each).
	packErr, collErr chan error
}

// endOfStep on bucketPlan.ready tells the packer no more buckets will become
// ready this step.
const endOfStep = -1

func newBucketPlan(engine *dpt.Engine, bucketFloats int) *bucketPlan {
	if bucketFloats <= 0 {
		bucketFloats = 16384
	}
	total := engine.GradSize()
	nb := (total + bucketFloats - 1) / bucketFloats
	p := &bucketPlan{
		lo:        make([]int, nb),
		hi:        make([]int, nb),
		bucketsOf: make([][]int, engine.NumParams()),
		contribs:  make([]int, nb),
		pending:   make([]int, nb),
		isReady:   make([]bool, nb),
		ready:     make(chan int, nb+1),
		packErr:   make(chan error, 1),
		collErr:   make(chan error, 1),
	}
	for b := 0; b < nb; b++ {
		p.lo[b] = b * bucketFloats
		p.hi[b] = min(p.lo[b]+bucketFloats, total)
	}
	for i := 0; i < engine.NumParams(); i++ {
		pLo, pHi := engine.ParamRange(i)
		for b := pLo / bucketFloats; b*bucketFloats < pHi; b++ {
			p.bucketsOf[i] = append(p.bucketsOf[i], b)
			p.contribs[b] += engine.NumDevices()
		}
	}
	p.hook = func(dev, param int) {
		fired := false
		p.mu.Lock()
		for _, b := range p.bucketsOf[param] {
			p.pending[b]--
			if p.pending[b] == 0 {
				p.ready <- b
				fired = true
			}
		}
		p.mu.Unlock()
		if fired {
			// Hand the processor to the packer so the bucket's non-blocking
			// exchange launches NOW, not when backward happens to preempt.
			// On a single-core runner this is what lets wire time start
			// ticking under the remaining backward compute; the yield itself
			// costs microseconds against millisecond-scale layers.
			runtime.Gosched()
		}
	}
	return p
}

// stepBucketMajor runs the stages per bucket underneath backward, one round
// of the learner's Stream. t1 is the batch-sampling end time (Data is
// already accounted).
func (l *Learner) stepBucketMajor(t1 time.Time) (float64, error) {
	p := l.pipeline
	copy(p.pending, p.contribs)

	// Per-device forward/backward with incremental gradient emission; the
	// packer and collector are already reducing and exchanging buckets while
	// this call is still computing earlier layers.
	loss, stepErr := l.engine.StepWithGradHook(l.x, l.labels, p.hook)
	t2 := time.Now()
	l.phases.Compute += t2.Sub(t1).Seconds()
	// Hooks have quiesced (StepWithGradHook joins the devices before
	// returning, and validation errors fire none at all), so every bucket
	// that will become ready is already queued ahead of this.
	p.ready <- endOfStep

	perr := <-p.packErr
	cerr := <-p.collErr
	st, serr := l.stream.Stats()
	if cerr == nil {
		cerr = serr
	}
	l.commStats.Add(st)
	// Everything after backward returned is exposed (non-overlapped) comm +
	// update tail.
	l.phases.AllReduce += time.Since(t2).Seconds()
	switch {
	case stepErr != nil:
		return 0, stepErr
	case perr != nil:
		return 0, perr
	case cerr != nil:
		return 0, cerr
	}
	return loss, nil
}

// packBuckets is the packer: it serializes ready buckets into the launch
// order agreed across ranks — descending bucket index, i.e. backward order —
// packs each and submits it. (The Stream's ordering contract forbids
// launching in raw readiness order: with a bounded in-flight window, ranks
// launching different orders can deadlock.) Each step ends at endOfStep,
// which on a failed step arrives early, with the Stream's round end, so the
// collector finishes the step too; after an error of its own it keeps
// draining ready so nothing stale is left for the next step. When Close
// closes ready it closes the Stream, the one goroutine that submits to it.
func (l *Learner) packBuckets() {
	p := l.pipeline
	var err error
	next := len(p.lo) - 1
	for b := range p.ready {
		if b == endOfStep {
			l.stream.EndRound()
			p.packErr <- err
			err, next = nil, len(p.lo)-1
			clear(p.isReady)
			continue
		}
		p.isReady[b] = true
		for err == nil && next >= 0 && p.isReady[next] {
			lo, hi := p.lo[next], p.hi[next]
			if err = l.pack(lo, hi); err == nil {
				l.stream.Submit(next, lo, hi, l.gradBuf[lo:hi])
				next--
			}
		}
	}
	l.stream.Close()
	p.stopped.Done()
}

// applyBuckets is the collector: as reduced buckets land it closes the
// error-feedback loop and applies them, then releases the consumed Sum back
// to the pool for the next buckets (and the next step). A bucket this rank
// does not own (reduce-scatter) lands without a Sum and contributes only its
// residual, which is rank-local. After a failure it keeps draining to the
// round's end, and it stops when Close closes the Stream's Results.
func (l *Learner) applyBuckets() {
	p := l.pipeline
	var err error
	for res := range l.stream.Results() {
		if res.Idx == allreduce.RoundEnd {
			p.collErr <- err
			err = nil
			continue
		}
		if err == nil {
			err = res.Err
		}
		if err == nil {
			l.residual(res.Lo, res.Hi)
			if res.Sum != nil {
				l.apply(res.Lo, res.Hi, res.Sum)
			}
		}
		res.Release()
	}
	p.stopped.Done()
}

// Package async implements the asynchronous-SGD direction the paper's
// conclusion proposes exploring ("in future, we would like to explore the
// use and impact of our optimizations for the case of asynchronous SGD")
// and its related-work section surveys: a parameter-server architecture
// (one MPI rank collects gradients from peer workers and returns updated
// weights, as in Zhang et al.'s elastic averaging setup, ref [25]) with
// staleness-aware learning-rate scaling (Zhang, Gupta, Lian & Liu, ref
// [10]: divide the learning rate by the gradient's staleness).
//
// DIMD plugs in unchanged — each worker draws batches from its in-memory
// store — confirming the paper's expectation that the in-memory data
// distribution "should also improve the data loading performance in the
// asynchronous case".
package async

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// Message tags for the parameter-server protocol (within the application
// tag space, clear of the allreduce package's reserved band).
const (
	tagGradient = 40000
	tagWeights  = 40001
)

// abortMarker is the one-byte frame a failing worker sends in place of a
// gradient so the server fails fast instead of hanging (gradient frames are
// always >= 8 bytes, so the length disambiguates).
const abortMarker = 0xFF

// Config assembles an asynchronous training job. Rank 0 of the communicator
// is the parameter server; ranks 1..n-1 are workers.
type Config struct {
	// StepsPerWorker is how many gradients each worker contributes.
	StepsPerWorker int
	// BatchPerWorker is each worker's mini-batch size.
	BatchPerWorker int
	// LR is the base learning rate.
	LR float32
	// StalenessAware divides the learning rate by (1 + staleness), the
	// staleness-aware protocol of ref [10]. Without it, stale gradients
	// are applied at full strength.
	StalenessAware bool
	// SGD sets momentum and weight decay for the server's optimizer.
	SGD sgd.Config
}

// Result summarizes a run from the server's perspective.
type Result struct {
	// UpdatesApplied is the total number of gradient applications.
	UpdatesApplied int
	// MaxStaleness is the largest observed gradient staleness (server
	// updates that happened between a worker pulling weights and its
	// gradient arriving).
	MaxStaleness int
	// MeanStaleness averages staleness over all updates.
	MeanStaleness float64
	// FinalWeights is the server's final flattened model.
	FinalWeights []float32
}

// gradient frames are [version u32][payload float32s].
func encodeGradient(version int, grad []float32) []byte {
	buf := make([]byte, 4+4*len(grad))
	binary.LittleEndian.PutUint32(buf, uint32(version))
	mpi.EncodeFloat32s(buf[4:], grad)
	return buf
}

func decodeGradient(b []byte, grad []float32) (version int, err error) {
	if len(b) != 4+4*len(grad) {
		return 0, fmt.Errorf("async: gradient frame %d bytes, want %d", len(b), 4+4*len(grad))
	}
	mpi.DecodeFloat32s(grad, b[4:])
	return int(binary.LittleEndian.Uint32(b)), nil
}

// weight frames are [version u32][payload float32s].
func encodeWeights(version int, w []float32) []byte {
	return encodeGradient(version, w)
}

// Run executes the job: the caller provides this rank's model replica (same
// architecture everywhere; the server's weights win) and, on worker ranks,
// a batch source. Returns a Result on the server rank and a zero Result on
// workers.
func Run(comm *mpi.Comm, replica nn.Layer, source core.BatchSource, inputC, inputH, inputW int, cfg Config) (Result, error) {
	if comm.Size() < 2 {
		return Result{}, errors.New("async: need a server and at least one worker")
	}
	if cfg.StepsPerWorker <= 0 || cfg.BatchPerWorker <= 0 {
		return Result{}, fmt.Errorf("async: invalid config %+v", cfg)
	}
	if comm.Rank() == 0 {
		return runServer(comm, replica, cfg)
	}
	return Result{}, runWorker(comm, replica, source, inputC, inputH, inputW, cfg)
}

// runServer applies gradients as they arrive from any worker, tracking the
// model version to measure staleness, and replies with fresh weights.
func runServer(comm *mpi.Comm, replica nn.Layer, cfg Config) (Result, error) {
	params := replica.Params()
	size := nn.ParamCount(params)
	opt := sgd.New(params, cfg.SGD)
	weights := make([]float32, size)
	grad := make([]float32, size)

	// Initial weight broadcast: every worker starts from the server model.
	if err := nn.FlattenValues(params, weights); err != nil {
		return Result{}, err
	}
	payload := encodeWeights(0, weights)
	for w := 1; w < comm.Size(); w++ {
		if err := comm.Send(w, tagWeights, payload); err != nil {
			return Result{}, err
		}
	}

	// One receiving goroutine per worker funnels gradients into a channel
	// (the MPI_ANY_SOURCE pattern); the server loop applies them in arrival
	// order.
	type arrival struct {
		worker  int
		payload []byte
		err     error
	}
	// Buffered so receiver goroutines never block on a server that has
	// already returned (e.g. after a worker abort).
	arrivals := make(chan arrival, (comm.Size()-1)*(cfg.StepsPerWorker+1))
	for w := 1; w < comm.Size(); w++ {
		go func(worker int) {
			for s := 0; s < cfg.StepsPerWorker; s++ {
				b, err := comm.Recv(worker, tagGradient)
				arrivals <- arrival{worker: worker, payload: b, err: err}
				if err != nil {
					return
				}
			}
		}(w)
	}

	res := Result{}
	version := 0
	total := (comm.Size() - 1) * cfg.StepsPerWorker
	var stalenessSum float64
	for i := 0; i < total; i++ {
		a := <-arrivals
		if a.err != nil {
			return Result{}, fmt.Errorf("async: receiving from worker %d: %w", a.worker, a.err)
		}
		if len(a.payload) == 1 && a.payload[0] == abortMarker {
			// The worker failed mid-run and told us so rather than letting
			// the server wait forever for gradients that will never come.
			// Propagate the shutdown so the surviving workers' weight
			// receives unblock too.
			for w := 1; w < comm.Size(); w++ {
				if w != a.worker {
					_ = comm.Send(w, tagWeights, []byte{abortMarker})
				}
			}
			return Result{}, fmt.Errorf("async: worker %d aborted", a.worker)
		}
		baseVersion, err := decodeGradient(a.payload, grad)
		if err != nil {
			return Result{}, err
		}
		staleness := version - baseVersion
		if staleness < 0 {
			staleness = 0
		}
		if staleness > res.MaxStaleness {
			res.MaxStaleness = staleness
		}
		stalenessSum += float64(staleness)

		lr := cfg.LR
		if cfg.StalenessAware && staleness > 0 {
			lr /= float32(1 + staleness)
		}
		if err := nn.UnflattenGrads(params, grad); err != nil {
			return Result{}, err
		}
		opt.Step(lr)
		version++
		res.UpdatesApplied++

		// Reply with the updated model so the worker proceeds.
		if err := nn.FlattenValues(params, weights); err != nil {
			return Result{}, err
		}
		if err := comm.Send(a.worker, tagWeights, encodeWeights(version, weights)); err != nil {
			return Result{}, err
		}
	}
	res.MeanStaleness = stalenessSum / float64(total)
	res.FinalWeights = append([]float32(nil), weights...)
	return res, nil
}

// runWorker pulls weights, computes a gradient on a local batch, pushes it
// with the version it was computed against, and repeats. Any mid-run error
// is reported to the server with an abort frame before returning.
func runWorker(comm *mpi.Comm, replica nn.Layer, source core.BatchSource, inputC, inputH, inputW int, cfg Config) (err error) {
	defer func() {
		if err != nil {
			// Best effort: unblock the server. Ignore the send error; the
			// original failure is what the caller needs to see.
			_ = comm.Send(0, tagGradient, []byte{abortMarker})
		}
	}()
	if source == nil {
		return errors.New("async: worker needs a batch source")
	}
	params := replica.Params()
	size := nn.ParamCount(params)
	grad := make([]float32, size)
	weights := make([]float32, size)
	crit := nn.NewSoftmaxCrossEntropy()
	x := tensor.New(cfg.BatchPerWorker, inputC, inputH, inputW)
	labels := make([]int, cfg.BatchPerWorker)

	// Initial weights.
	b, err := comm.Recv(0, tagWeights)
	if err != nil {
		return err
	}
	version, err := decodeGradient(b, weights)
	if err != nil {
		return err
	}
	if err := nn.UnflattenValues(params, weights); err != nil {
		return err
	}

	for s := 0; s < cfg.StepsPerWorker; s++ {
		if err := source.NextBatch(x, labels); err != nil {
			return fmt.Errorf("async: worker batch: %w", err)
		}
		out := replica.Forward(x, true)
		if _, err := crit.Forward(out, labels); err != nil {
			return err
		}
		replica.Backward(crit.Backward())
		if err := nn.FlattenGrads(params, grad); err != nil {
			return err
		}
		if err := comm.Send(0, tagGradient, encodeGradient(version, grad)); err != nil {
			return err
		}
		b, err := comm.Recv(0, tagWeights)
		if err != nil {
			return err
		}
		if len(b) == 1 && b[0] == abortMarker {
			return errors.New("async: job aborted by server")
		}
		if version, err = decodeGradient(b, weights); err != nil {
			return err
		}
		if err := nn.UnflattenValues(params, weights); err != nil {
			return err
		}
	}
	return nil
}

package async

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// Elastic Averaging SGD (Zhang, Choromanska & LeCun — the paper's ref
// [25]): workers train *local* models and periodically exchange an elastic
// force with a center variable kept by the server,
//
//	x_i      <- x_i - α(x_i - x̃)
//	x̃ (center) <- x̃ + α(x_i - x̃)
//
// so workers explore independently while being pulled toward consensus.
// Unlike the parameter-server protocol in async.go, only every CommPeriod-th
// step communicates, trading gradient freshness for communication volume —
// the asynchronous design point the paper's related work contrasts with its
// synchronous approach.

// EASGDConfig assembles an elastic-averaging job. Rank 0 holds the center
// variable; ranks 1..n-1 are workers.
type EASGDConfig struct {
	// StepsPerWorker counts local SGD steps per worker.
	StepsPerWorker int
	// CommPeriod is τ: steps between elastic exchanges.
	CommPeriod int
	// Alpha is the elastic coupling strength (paper recommendation ~0.9/p
	// for p workers).
	Alpha float32
	// BatchPerWorker and LR configure the local SGD.
	BatchPerWorker int
	LR             float32
	SGD            sgd.Config
}

// EASGDResult summarizes the run from the server's perspective.
type EASGDResult struct {
	// Exchanges counts elastic updates applied to the center.
	Exchanges int
	// CenterWeights is the final center variable.
	CenterWeights []float32
}

const (
	tagElasticPush = 40100
	tagElasticPull = 40101
	tagElasticDone = 40102
)

// RunEASGD executes the job. Worker ranks need a batch source; the server
// rank's source may be nil.
func RunEASGD(comm *mpi.Comm, replica nn.Layer, source core.BatchSource, inputC, inputH, inputW int, cfg EASGDConfig) (EASGDResult, error) {
	if comm.Size() < 2 {
		return EASGDResult{}, errors.New("async: EASGD needs a server and at least one worker")
	}
	if cfg.StepsPerWorker <= 0 || cfg.CommPeriod <= 0 || cfg.BatchPerWorker <= 0 {
		return EASGDResult{}, fmt.Errorf("async: invalid EASGD config %+v", cfg)
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return EASGDResult{}, fmt.Errorf("async: elastic alpha %v outside (0,1)", cfg.Alpha)
	}
	if comm.Rank() == 0 {
		return runEASGDServer(comm, replica, cfg)
	}
	return EASGDResult{}, runEASGDWorker(comm, replica, source, inputC, inputH, inputW, cfg)
}

// runEASGDServer owns the center variable: on each worker push it returns
// the elastic difference and moves the center toward the worker.
func runEASGDServer(comm *mpi.Comm, replica nn.Layer, cfg EASGDConfig) (EASGDResult, error) {
	params := replica.Params()
	size := nn.ParamCount(params)
	center := make([]float32, size)
	if err := nn.FlattenValues(params, center); err != nil {
		return EASGDResult{}, err
	}
	// Send the initial center so all workers start identically.
	init := mpi.Float32sToBytes(center)
	for w := 1; w < comm.Size(); w++ {
		if err := comm.Send(w, tagElasticPull, init); err != nil {
			return EASGDResult{}, err
		}
	}
	type push struct {
		worker  int
		payload []byte
		err     error
		done    bool
	}
	pushes := make(chan push)
	for w := 1; w < comm.Size(); w++ {
		go func(worker int) {
			for {
				b, err := comm.Recv(worker, tagElasticPush)
				if err != nil {
					pushes <- push{worker: worker, err: err}
					return
				}
				if len(b) == 1 { // done marker
					pushes <- push{worker: worker, done: true}
					return
				}
				pushes <- push{worker: worker, payload: b}
			}
		}(w)
	}
	res := EASGDResult{}
	remaining := comm.Size() - 1
	worker := make([]float32, size)
	for remaining > 0 {
		p := <-pushes
		if p.err != nil {
			return EASGDResult{}, fmt.Errorf("async: EASGD server recv from %d: %w", p.worker, p.err)
		}
		if p.done {
			remaining--
			continue
		}
		if len(p.payload) != 4*size {
			return EASGDResult{}, fmt.Errorf("async: EASGD push %d bytes, want %d", len(p.payload), 4*size)
		}
		mpi.DecodeFloat32s(worker, p.payload)
		// Elastic update: the reply carries the center BEFORE this push's
		// pull (symmetric update uses the same difference on both sides).
		diff := make([]float32, size)
		for i := range diff {
			diff[i] = cfg.Alpha * (worker[i] - center[i])
			center[i] += diff[i]
		}
		res.Exchanges++
		if err := comm.Send(p.worker, tagElasticPull, mpi.Float32sToBytes(diff)); err != nil {
			return EASGDResult{}, err
		}
	}
	res.CenterWeights = center
	if err := nn.UnflattenValues(params, center); err != nil {
		return EASGDResult{}, err
	}
	return res, nil
}

// runEASGDWorker trains a local model, exchanging the elastic force with
// the center every CommPeriod steps.
func runEASGDWorker(comm *mpi.Comm, replica nn.Layer, source core.BatchSource, inputC, inputH, inputW int, cfg EASGDConfig) error {
	if source == nil {
		return errors.New("async: EASGD worker needs a batch source")
	}
	params := replica.Params()
	size := nn.ParamCount(params)
	opt := sgd.New(params, cfg.SGD)
	crit := nn.NewSoftmaxCrossEntropy()
	x := tensor.New(cfg.BatchPerWorker, inputC, inputH, inputW)
	labels := make([]int, cfg.BatchPerWorker)
	local := make([]float32, size)

	// Initial center.
	b, err := comm.Recv(0, tagElasticPull)
	if err != nil {
		return err
	}
	if len(b) != 4*size {
		return fmt.Errorf("async: EASGD init %d bytes, want %d", len(b), 4*size)
	}
	mpi.DecodeFloat32s(local, b)
	if err := nn.UnflattenValues(params, local); err != nil {
		return err
	}

	for s := 1; s <= cfg.StepsPerWorker; s++ {
		if err := source.NextBatch(x, labels); err != nil {
			return err
		}
		out := replica.Forward(x, true)
		if _, err := crit.Forward(out, labels); err != nil {
			return err
		}
		replica.Backward(crit.Backward())
		opt.Step(cfg.LR)

		if s%cfg.CommPeriod == 0 {
			if err := nn.FlattenValues(params, local); err != nil {
				return err
			}
			if err := comm.Send(0, tagElasticPush, mpi.Float32sToBytes(local)); err != nil {
				return err
			}
			db, err := comm.Recv(0, tagElasticPull)
			if err != nil {
				return err
			}
			if len(db) != 4*size {
				return fmt.Errorf("async: EASGD pull %d bytes, want %d", len(db), 4*size)
			}
			diff := make([]float32, size)
			mpi.DecodeFloat32s(diff, db)
			for i := range local {
				local[i] -= diff[i]
			}
			if err := nn.UnflattenValues(params, local); err != nil {
				return err
			}
		}
	}
	return comm.Send(0, tagElasticPush, []byte{1}) // done marker
}

package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// paramShardCuts splits the params into n contiguous, roughly element-
// balanced shards (the same policy core uses), as param-index bounds.
func paramShardCuts(params []*nn.Param, n int) []int {
	total := nn.ParamCount(params)
	cuts := make([]int, n+1)
	p, off := 0, 0
	for r := 1; r <= n; r++ {
		target := r * total / n
		for p < len(params) && off < target {
			off += params[p].Value.Len()
			p++
		}
		cuts[r] = p
	}
	cuts[n] = len(params)
	return cuts
}

// newShard is the shard optimizer over the params of param-index cuts
// [lo, hi): the element range they cover.
func newShard(params []*nn.Param, lo, hi int) *sgd.SGD {
	return sgd.NewShard(params, sgd.DefaultConfig(), nn.ParamCount(params[:lo]), nn.ParamCount(params[:hi]))
}

// fillGrads writes the same deterministic gradient into every replica.
func fillGrads(params []*nn.Param) {
	rng := tensor.NewRNG(99)
	for _, p := range params {
		rng.FillNormal(p.Grad, 0, 1)
	}
}

// Sharded save → replicated load: a sharded world's CaptureSharded must
// produce the byte-identical file a replicated run writes, and loading it
// replicated must continue the exact trajectory.
func TestShardedSaveReplicatedLoadSGD(t *testing.T) {
	const ranks = 3
	// Replicated reference run.
	ref := models.NewSmallCNN(3, 8, tensor.NewRNG(1))
	refOpt := sgd.New(ref.Params(), sgd.DefaultConfig())
	fillGrads(ref.Params())
	refOpt.Step(0.05)
	refOpt.Step(0.05)

	// Sharded run with identical arithmetic: each rank holds a replica
	// seeded identically and steps only its shard; weights stay in sync
	// because updates are disjoint and deterministic.
	reps := make([]*nn.Sequential, ranks)
	opts := make([]*sgd.SGD, ranks)
	for r := 0; r < ranks; r++ {
		reps[r] = models.NewSmallCNN(3, 8, tensor.NewRNG(1))
		cuts := paramShardCuts(reps[r].Params(), ranks)
		opts[r] = newShard(reps[r].Params(), cuts[r], cuts[r+1])
		fillGrads(reps[r].Params())
	}
	for step := 0; step < 2; step++ {
		for r := 0; r < ranks; r++ {
			opts[r].Step(0.05)
		}
		// Sync shards across replicas (the learner's param allgather).
		for r := 0; r < ranks; r++ {
			cuts := paramShardCuts(reps[r].Params(), ranks)
			for i := cuts[r]; i < cuts[r+1]; i++ {
				for o := 0; o < ranks; o++ {
					if o != r {
						copy(reps[o].Params()[i].Value.Data, reps[r].Params()[i].Value.Data)
					}
				}
			}
		}
	}

	// Sharded save: gather the shards over a real communicator.
	var ck *Checkpoint
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		got, err := CaptureSharded(c, reps[c.Rank()].Params(), opts[c.Rank()], 2, 0.5)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			ck = got
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The gathered checkpoint must be byte-identical to the replicated one.
	refCk, err := Capture(ref.Params(), refOpt, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := ck.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := refCk.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sharded save is not byte-identical to the replicated save — checkpoint is not rank-count independent")
	}

	// Replicated load of the sharded save: one more identical step must
	// reproduce the reference trajectory exactly.
	got, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	net2 := models.NewSmallCNN(3, 8, tensor.NewRNG(7))
	opt2 := sgd.New(net2.Params(), sgd.DefaultConfig())
	if err := got.Restore(net2.Params(), opt2); err != nil {
		t.Fatal(err)
	}
	fillGrads(net2.Params())
	refOpt.Step(0.05)
	opt2.Step(0.05)
	for i, p := range ref.Params() {
		for j := range p.Value.Data {
			if p.Value.Data[j] != net2.Params()[i].Value.Data[j] {
				t.Fatalf("param %d elem %d diverges after replicated load of sharded save", i, j)
			}
		}
	}
}

// Replicated save → sharded load (any world size): each rank imports only
// its StateBounds slice, and a subsequent sharded update matches the
// replicated trajectory bit for bit on every shard.
func TestReplicatedSaveShardedLoad(t *testing.T) {
	net, _ := trainedModel(t, 30)
	opt := sgd.New(net.Params(), sgd.DefaultConfig())
	// Accumulate momentum, snapshot, then take a reference step.
	fillGrads(net.Params())
	opt.Step(0.05)
	ck, err := Capture(net.Params(), opt, 9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fillGrads(net.Params())
	opt.Step(0.05)

	for _, ranks := range []int{2, 4} {
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]*nn.Sequential, ranks)
		for r := 0; r < ranks; r++ {
			reps[r] = models.NewSmallCNN(3, 8, tensor.NewRNG(50+int64(r)))
			cuts := paramShardCuts(reps[r].Params(), ranks)
			so := newShard(reps[r].Params(), cuts[r], cuts[r+1])
			if err := got.Restore(reps[r].Params(), so); err != nil {
				t.Fatal(err)
			}
			fillGrads(reps[r].Params())
			so.Step(0.05)
			for i := cuts[r]; i < cuts[r+1]; i++ {
				for j := range reps[r].Params()[i].Value.Data {
					if reps[r].Params()[i].Value.Data[j] != net.Params()[i].Value.Data[j] {
						t.Fatalf("ranks=%d rank=%d param %d elem %d: sharded load diverges from replicated trajectory",
							ranks, r, i, j)
					}
				}
			}
		}
	}
}

// A partial shard must be refused by plain Capture, and a sharded restore
// must refuse a checkpoint whose state is not the full model's.
func TestShardedCaptureRestoreGuards(t *testing.T) {
	net, _ := trainedModel(t, 60)
	cuts := paramShardCuts(net.Params(), 2)
	so := newShard(net.Params(), cuts[0], cuts[1])
	if _, err := Capture(net.Params(), so, 0, 0); err == nil {
		t.Fatal("Capture of a partial shard must error (use CaptureSharded)")
	}
	full := sgd.New(net.Params(), sgd.DefaultConfig())
	ck, err := Capture(net.Params(), full, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ck.optState = ck.optState[:len(ck.optState)-1]
	if err := ck.Restore(net.Params(), so); err == nil {
		t.Fatal("sharded restore of a truncated state must error")
	}
}

// CaptureSharded with a replicated-form optimizer (shard == full state) must
// degrade to a plain Capture on a multi-rank communicator instead of
// gathering world-size full replicas.
func TestCaptureShardedFullShard(t *testing.T) {
	const ranks = 3
	nets := make([]*nn.Sequential, ranks)
	opts := make([]*sgd.SGD, ranks)
	for r := 0; r < ranks; r++ {
		nets[r] = models.NewSmallCNN(3, 8, tensor.NewRNG(70))
		opts[r] = sgd.New(nets[r].Params(), sgd.DefaultConfig())
		fillGrads(nets[r].Params())
		opts[r].Step(0.05)
	}
	var ck *Checkpoint
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		got, err := CaptureSharded(c, nets[c.Rank()].Params(), opts[c.Rank()], 1, 0.5)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			ck = got
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.optState) != opts[0].FullStateLen() {
		t.Fatalf("full-shard CaptureSharded gathered %d state elements, want %d", len(ck.optState), opts[0].FullStateLen())
	}
}

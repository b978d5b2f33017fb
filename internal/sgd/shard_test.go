package sgd

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// testParams builds a small synthetic parameter list with mixed sizes and a
// NoWeightDecay entry, with deterministic weights and gradients.
func testParams(seed int64) []*nn.Param {
	rng := tensor.NewRNG(seed)
	sizes := []int{7, 32, 5, 19, 3}
	var ps []*nn.Param
	for i, n := range sizes {
		p := &nn.Param{Value: tensor.New(n), Grad: tensor.New(n)}
		rng.FillNormal(p.Value, 0, 1)
		rng.FillNormal(p.Grad, 0, 1)
		if i == 2 {
			p.NoWeightDecay = true
		}
		ps = append(ps, p)
	}
	return ps
}

func totalLen(ps []*nn.Param) int { return nn.ParamCount(ps) }

// A union of shard optimizers stepping disjoint ranges must reproduce the
// full replicated update bit for bit — the ZeRO-1 correctness statement at
// the optimizer level.
func TestSGDShardUnionMatchesFullBitwise(t *testing.T) {
	full := testParams(1)
	sharded := testParams(1)
	fullOpt := New(full, DefaultConfig())
	cuts := []int{0, 2, 2, 4, 5} // includes an empty shard
	var shards []*SGD
	for r := 0; r+1 < len(cuts); r++ {
		shards = append(shards, NewShard(sharded, DefaultConfig(), cuts[r], cuts[r+1]))
	}
	for step := 0; step < 3; step++ {
		fullOpt.Step(0.05)
		for _, s := range shards {
			s.Step(0.05)
		}
	}
	for i := range full {
		for j := range full[i].Value.Data {
			if full[i].Value.Data[j] != sharded[i].Value.Data[j] {
				t.Fatalf("param %d elem %d: full %v, shard union %v", i, j, full[i].Value.Data[j], sharded[i].Value.Data[j])
			}
		}
	}
}

// StepParam outside the shard must be a no-op (the reactive collector counts
// down every param and relies on the optimizer enforcing ownership).
func TestSGDShardStepParamOutsideIsNoOp(t *testing.T) {
	ps := testParams(3)
	o := NewShard(ps, DefaultConfig(), 1, 3)
	if o.Owns(0) || !o.Owns(1) || !o.Owns(2) || o.Owns(3) {
		lo, hi := o.ShardRange()
		t.Fatalf("ownership wrong for shard [%d,%d)", lo, hi)
	}
	before := append([]float32(nil), ps[0].Value.Data...)
	o.StepParam(0, 0.1)
	o.StepParam(4, 0.1)
	for j, v := range ps[0].Value.Data {
		if v != before[j] {
			t.Fatal("StepParam outside shard mutated the parameter")
		}
	}
}

// Shard state accounting: StateLen/StateBounds/FullStateLen describe exactly
// the owned params' contiguous element range, and export/import round-trip.
func TestShardStateBoundsAndRoundTrip(t *testing.T) {
	ps := testParams(4)
	total := totalLen(ps)
	o := NewShard(ps, DefaultConfig(), 1, 3)
	wantLo := ps[0].Value.Len()
	wantHi := wantLo + ps[1].Value.Len() + ps[2].Value.Len()
	if lo, hi := o.StateBounds(); lo != wantLo || hi != wantHi {
		t.Fatalf("StateBounds [%d,%d), want [%d,%d)", lo, hi, wantLo, wantHi)
	}
	if o.StateLen() != wantHi-wantLo {
		t.Fatalf("StateLen %d, want %d", o.StateLen(), wantHi-wantLo)
	}
	if o.FullStateLen() != total {
		t.Fatalf("FullStateLen %d, want %d", o.FullStateLen(), total)
	}
	o.Step(0.05) // make momentum non-trivial
	st := make([]float32, o.StateLen())
	if err := o.ExportState(st); err != nil {
		t.Fatal(err)
	}
	o2 := NewShard(testParams(4), DefaultConfig(), 1, 3)
	if err := o2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	st2 := make([]float32, o2.StateLen())
	if err := o2.ExportState(st2); err != nil {
		t.Fatal(err)
	}
	for i := range st {
		if st[i] != st2[i] {
			t.Fatal("shard state does not round-trip")
		}
	}
	if err := o.ExportState(make([]float32, o.StateLen()+1)); err == nil {
		t.Fatal("wrong-size export should error")
	}
	if err := o.ImportState(make([]float32, o.StateLen()-1)); err == nil {
		t.Fatal("wrong-size import should error")
	}
}

// Empty and boundary shards must be well-formed.
func TestShardEdgeCases(t *testing.T) {
	ps := testParams(5)
	total := totalLen(ps)
	for _, tc := range []struct{ lo, hi, sLo, sHi int }{
		{0, 0, 0, 0},
		{5, 5, total, total},
		{2, 2, ps[0].Value.Len() + ps[1].Value.Len(), ps[0].Value.Len() + ps[1].Value.Len()},
		{0, 5, 0, total},
	} {
		o := NewShard(ps, DefaultConfig(), tc.lo, tc.hi)
		if lo, hi := o.StateBounds(); lo != tc.sLo || hi != tc.sHi {
			t.Fatalf("shard [%d,%d): StateBounds [%d,%d), want [%d,%d)", tc.lo, tc.hi, lo, hi, tc.sLo, tc.sHi)
		}
		o.Step(0.1) // must not panic, even with nothing owned
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range shard should panic")
		}
	}()
	NewShard(ps, DefaultConfig(), 3, 6)
}

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
	// Element cuts inside params 1 and 2 (2 skips weight decay), and an
	// empty shard.
	cuts := []int{0, 7, 20, 20, 41, totalLen(full)}
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

// StepRange outside the shard must be a no-op: the trainer hands every
// completed range to every optimizer and relies on each keeping to its own.
func TestSGDShardStepRangeOutsideIsNoOp(t *testing.T) {
	ps := testParams(3)
	total := totalLen(ps)
	before := make([]float32, 0, total)
	for _, p := range ps {
		before = append(before, p.Value.Data...)
	}
	g := make([]float32, total)
	for i := range g {
		g[i] = 1
	}
	o := NewShard(ps, DefaultConfig(), 10, 41)
	o.StepRange(0, 10, 0.1, g[:10], 1)
	o.StepRange(41, total, 0.1, g[41:], 1)
	o.StepRange(5, 45, 0.1, g[5:45], 1)
	off := 0
	for _, p := range ps {
		for _, v := range p.Value.Data {
			if inside := off >= 10 && off < 41; (v != before[off]) != inside {
				t.Fatalf("element %d: %v, was %v (inside the shard: %v)", off, v, before[off], inside)
			}
			off++
		}
	}
}

// Shard state accounting: StateLen/StateBounds/FullStateLen describe exactly
// the owned contiguous element range, and export/import round-trip.
func TestShardStateBoundsAndRoundTrip(t *testing.T) {
	ps := testParams(4)
	total := totalLen(ps)
	wantLo := ps[0].Value.Len()
	wantHi := wantLo + ps[1].Value.Len() + ps[2].Value.Len()
	o := NewShard(ps, DefaultConfig(), wantLo, wantHi)
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
	o2 := NewShard(testParams(4), DefaultConfig(), wantLo, wantHi)
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
	mid := ps[0].Value.Len() + ps[1].Value.Len()
	for _, tc := range [][2]int{{0, 0}, {total, total}, {mid, mid}, {3, mid + 2}, {0, total}} {
		o := NewShard(ps, DefaultConfig(), tc[0], tc[1])
		if lo, hi := o.StateBounds(); lo != tc[0] || hi != tc[1] || o.StateLen() != hi-lo {
			t.Fatalf("shard %v: StateBounds [%d,%d), StateLen %d", tc, lo, hi, o.StateLen())
		}
		o.Step(0.1) // must not panic, even with nothing owned
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range shard should panic")
		}
	}()
	NewShard(ps, DefaultConfig(), 3, total+1)
}

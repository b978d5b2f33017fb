package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dimd"
	"repro/internal/dpt"
	"repro/internal/imagecodec"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

const (
	// layerSamples is how many times measureLayers calls sample; the layer
	// budget is split evenly between them.
	layerSamples = 32
	// collectiveRanks is the world size the collectives are measured at.
	collectiveRanks = 4
)

// layerBench measures single layers by calling them directly. Every batch of
// calls is recorded as a top-level span named after its metric, so the trace
// file and the per-layer numbers come from the same records.
type layerBench struct {
	rec   *recorder
	seed  int64
	per   time.Duration // budget of one sample
	calls int
	m     map[string]metric
}

// measureLayers fills m with every per-layer metric that does not come from
// the traced workload itself, spending about seconds on them.
func measureLayers(rec *recorder, seed int64, seconds float64, m map[string]metric) error {
	lb := &layerBench{rec: rec, seed: seed, per: time.Duration(seconds / layerSamples * float64(time.Second)), m: m}
	for _, group := range []func() error{lb.core, lb.dimd, lb.dpt, lb.compute, lb.allreduce, lb.compress, lb.mpi, lb.sgd} {
		if err := group(); err != nil {
			return err
		}
	}
	if lb.calls != layerSamples {
		panic(fmt.Sprintf("bench: layerSamples is %d but measureLayers sampled %d times", layerSamples, lb.calls))
	}
	return nil
}

// sample calls batch until the sample's budget is spent, and three times at
// least, and returns the median seconds of one call. work is what one call
// covers, in the unit the metric is about.
func (lb *layerBench) sample(name string, work float64, batch func() error) (float64, error) {
	lb.calls++
	var secs []float64
	for start := time.Now(); len(secs) < 3 || time.Since(start) < lb.per; {
		t0 := time.Now()
		if err := batch(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		lb.rec.add(layerTrack, span{name: name, start: t0, end: t1, parent: -1, step: -1, work: work})
		secs = append(secs, t1.Sub(t0).Seconds())
	}
	return median(secs), nil
}

// rate samples batch and stores work per second, scaled, under name.
func (lb *layerBench) rate(name, unit string, work, scale float64, batch func() error) error {
	sec, err := lb.sample(name, work, batch)
	lb.m[name] = metric{work / sec / scale, unit}
	return err
}

// cost samples a batch of iters calls and stores the time of one call.
func (lb *layerBench) cost(name, unit string, iters int, perSecond float64, batch func() error) error {
	sec, err := lb.sample(name, float64(iters), batch)
	lb.m[name] = metric{sec / float64(iters) * perSecond, unit}
	return err
}

func repeat(iters int, fn func() error) func() error {
	return func() error {
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

func freeWorld(ranks, perNode int) (*mpi.World, error) {
	return mpi.NewTopologyWorld(ranks, mpi.UniformTopology(ranks, perNode), mpi.LinkProfile{}, mpi.LinkProfile{})
}

func randomFloats(n int, seed int64) []float32 {
	rng := tensor.NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

// core: the plain baseline of conv_phased's task, one learner with one
// device. No wall-clock scaling is claimed from it on two shared cores.
func (lb *layerBench) core() error {
	single := *findWorkload("conv_phased")
	single.learners, single.devices = 1, 1
	j, err := setup(&single, lb.seed)
	if err != nil {
		return err
	}
	defer j.close()
	return lb.cost("core.single_worker_step_ms", "ms", single.chunk, 1e3, func() error { return j.run(single.chunk, nil) })
}

// dimd and imagecodec: direct calls on dimd_input's stores.
func (lb *layerBench) dimd() error {
	pack, err := buildPack(lb.seed)
	if err != nil {
		return err
	}
	const ranks = 2
	stores := make([]*dimd.Store, ranks)
	err = lb.cost("dimd.load_partition_ms", "ms", ranks, 1e3, func() error {
		for r := range stores {
			if stores[r], err = dimd.LoadPartition(pack, r, ranks); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	batch := findWorkload("dimd_input").batch
	x := tensor.New(batch, 3, dimdAugment.Crop, dimdAugment.Crop)
	labels := make([]int, batch)
	rng := tensor.NewRNG(lb.seed)
	err = lb.cost("dimd.sample_ms_per_batch", "ms", 20, 1e3, repeat(20, func() error {
		return stores[0].SampleTensors(rng, dimdAugment, x, labels)
	}))
	if err != nil {
		return err
	}
	n := stores[0].Len()
	err = lb.cost("imagecodec.decode_us_per_image", "us", n, 1e6, func() error {
		for i := 0; i < n; i++ {
			if _, err := imagecodec.Decode(stores[0].Record(i).Data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	world, err := freeWorld(ranks, 1)
	if err != nil {
		return err
	}
	defer world.Close()
	shuffles := 0
	err = lb.cost("dimd.shuffle_ms", "ms", 1, 1e3, func() error {
		shuffles++
		return world.Run(func(c *mpi.Comm) error {
			return stores[c.Rank()].Shuffle(c, dimd.ShuffleOptions{Seed: lb.seed + int64(shuffles)})
		})
	})
	tr := world.Traffic()
	lb.m["dimd.shuffle_bytes"] = metric{float64(tr.IntraBytes+tr.InterBytes) / float64(shuffles), "B"}
	return err
}

// dpt: the engine alone on conv_phased's node — two TinyResNet devices.
func (lb *layerBench) dpt() error {
	w := findWorkload("conv_phased")
	e, err := dpt.New([]nn.Layer{w.model(lb.seed), w.model(lb.seed + 1)}, true)
	if err != nil {
		return err
	}
	defer e.Close()
	x, labels := core.SyntheticTensorData(w.devices*w.batch, classes, w.size, lb.seed)
	const iters = 4
	before := e.Stats()
	err = lb.cost("dpt.step_ms", "ms", iters, 1e3, repeat(iters, func() error {
		_, err := e.Step(x, labels)
		return err
	}))
	if err != nil {
		return err
	}
	after := e.Stats()
	lb.m["dpt.bytes_moved_per_step"] = metric{float64(after.BytesMoved-before.BytesMoved) / float64(after.Steps-before.Steps), "B"}
	grads := make([]float32, e.GradSize())
	if err := lb.cost("dpt.sumgrads_ms", "ms", 200, 1e3, repeat(200, func() error { return e.SumGrads(grads) })); err != nil {
		return err
	}
	return lb.cost("dpt.setgrads_ms", "ms", 200, 1e3, repeat(200, func() error { return e.SetGrads(grads) }))
}

// compute: nn, tensor and kernels — one replica's forward+backward, the
// GEMM shapes the workloads' models lower to, and the pool's dispatch cost.
func (lb *layerBench) compute() error {
	w := findWorkload("conv_phased")
	net := w.model(lb.seed)
	crit := nn.NewSoftmaxCrossEntropy()
	x, labels := core.SyntheticTensorData(w.batch, classes, w.size, lb.seed)
	err := lb.cost("nn.resnet_fwd_bwd_ms", "ms", 4, 1e3, repeat(4, func() error {
		nn.ZeroGrads(net.Params())
		if _, err := crit.Forward(net.Forward(x, true), labels); err != nil {
			return err
		}
		net.Backward(crit.Backward())
		return nil
	}))
	if err != nil {
		return err
	}
	for _, g := range []struct {
		name    string
		transB  bool
		m, n, k int
		iters   int
	}{
		{"tensor.gemm_gflops_conv", false, 16, 784, 288, 40}, // a 3×3 conv over 32 channels on a 28×28 map
		{"tensor.gemm_gflops_fc", true, 16, 384, 768, 60},    // wide_multicolor's first dense layer at batch 16
		{"tensor.gemm_gflops_256", false, 256, 256, 256, 8},
	} {
		g := g
		a, b := randomFloats(g.m*g.k, lb.seed), randomFloats(g.k*g.n, lb.seed+1)
		c := make([]float32, g.m*g.n)
		flops := 2 * float64(g.m) * float64(g.n) * float64(g.k) * float64(g.iters)
		err := lb.rate(g.name, "GFLOP/s", flops, 1e9, repeat(g.iters, func() error {
			tensor.Gemm(false, g.transB, g.m, g.n, g.k, 1, a, b, 0, c)
			return nil
		}))
		if err != nil {
			return err
		}
	}
	return lb.cost("kernels.run_overhead_ns", "ns", 20000, 1e9, repeat(20000, func() error {
		kernels.Run(procs, func(int) {})
		return nil
	}))
}

// collective samples op, run iters times by every rank of world on its own
// copy of src (refilled before each call, so sums never overflow), and
// stores the throughput in MB of vector per second.
func (lb *layerBench) collective(name string, world *mpi.World, src []float32, op func(c *mpi.Comm, buf []float32) error) error {
	const iters = 4
	bufs := make([][]float32, collectiveRanks)
	for r := range bufs {
		bufs[r] = make([]float32, len(src))
	}
	bytes := 4 * float64(len(src)) * float64(iters)
	return lb.rate(name, "MB/s", bytes, 1e6, func() error {
		return world.Run(func(c *mpi.Comm) error {
			buf := bufs[c.Rank()]
			for i := 0; i < iters; i++ {
				copy(buf, src)
				if err := op(c, buf); err != nil {
					world.Close()
					return err
				}
			}
			return nil
		})
	})
}

// allreduce: every algorithm and bucketed composition the workloads (and
// ROADMAP item 1d's ring-vs-multicolor question) touch, on four ranks over
// free links; the hierarchical ones on two nodes of two.
func (lb *layerBench) allreduce() error {
	// The vector is wide_multicolor's gradient.
	src := randomFloats(nn.ParamCount(findWorkload("wide_multicolor").model(lb.seed).Params()), lb.seed)
	flat, err := freeWorld(collectiveRanks, 1)
	if err != nil {
		return err
	}
	defer flat.Close()
	for _, a := range []struct {
		name string
		alg  allreduce.Algorithm
	}{
		{"allreduce.multicolor_mb_s", allreduce.AlgMultiColor},
		{"allreduce.ring_mb_s", allreduce.AlgRing},
		{"allreduce.rabenseifner_mb_s", allreduce.AlgRabenseifner},
		{"allreduce.default_mb_s", allreduce.AlgDefault},
	} {
		a := a
		err := lb.collective(a.name, flat, src, func(c *mpi.Comm, buf []float32) error {
			return allreduce.AllReduce(c, buf, a.alg, allreduce.Options{})
		})
		if err != nil {
			return err
		}
	}

	codec := func(name string) compress.Codec {
		c, err := compress.New(compress.Config{Codec: name})
		if err != nil {
			panic(err) // the names below are the package's own
		}
		return c
	}
	bucketed := func(c compress.Codec, opts allreduce.CompressedOptions) func(*mpi.Comm, []float32) error {
		opts.BucketFloats = bucketFloats
		return func(comm *mpi.Comm, buf []float32) error {
			_, err := allreduce.BucketedAllReduce(comm, buf, c, opts)
			return err
		}
	}
	if err := lb.collective("allreduce.bucketed_none_mb_s", flat, src, bucketed(codec("none"), allreduce.CompressedOptions{})); err != nil {
		return err
	}
	if err := lb.collective("allreduce.bucketed_bf16_mb_s", flat, src, bucketed(codec("bf16"), allreduce.CompressedOptions{})); err != nil {
		return err
	}
	int8 := codec("int8")
	err = lb.collective("allreduce.reducescatter_int8_mb_s", flat, src, func(c *mpi.Comm, buf []float32) error {
		_, err := allreduce.BucketedReduceScatter(c, buf, int8, allreduce.CompressedOptions{BucketFloats: bucketFloats})
		return err
	})
	if err != nil {
		return err
	}
	err = lb.collective("allreduce.param_allgather_mb_s", flat, src, func(c *mpi.Comm, buf []float32) error {
		return allreduce.AllGather(c, buf, nil, allreduce.VarRing)
	})
	if err != nil {
		return err
	}

	// The same int8 exchange over two nodes of two ranks, hierarchical and
	// flat: the inter-node bytes of one call are what the routing saves.
	topo := mpi.UniformTopology(collectiveRanks, 2)
	hier := bucketed(int8, allreduce.CompressedOptions{Topology: &topo})
	nodes, err := freeWorld(collectiveRanks, 2)
	if err != nil {
		return err
	}
	defer nodes.Close()
	if err := lb.collective("allreduce.hier_int8_mb_s", nodes, src, hier); err != nil {
		return err
	}
	for _, r := range []struct {
		name string
		op   func(*mpi.Comm, []float32) error
	}{
		{"allreduce.hier_inter_bytes", hier},
		{"allreduce.flat_inter_bytes", bucketed(int8, allreduce.CompressedOptions{})},
	} {
		r := r
		before := nodes.Traffic().InterBytes
		err := nodes.Run(func(c *mpi.Comm) error {
			return r.op(c, append([]float32(nil), src...))
		})
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		lb.m[r.name] = metric{float64(nodes.Traffic().InterBytes - before), "B"}
	}
	return nil
}

// compress: the codecs the bucketed workloads build, over 1 Mi floats taken
// one 4096-float bucket at a time as the Stream does. GB/s count the raw
// float32 bytes.
func (lb *layerBench) compress() error {
	const buckets = 256
	src := randomFloats(buckets*bucketFloats, lb.seed)
	acc := make([]float32, bucketFloats)
	rawBytes := 4 * float64(len(src))
	for _, name := range []string{"int8", "bf16", "none"} {
		codec, err := compress.New(compress.Config{Codec: name})
		if err != nil {
			return err
		}
		payloads := make([][]byte, buckets)
		encode := func() error {
			for b := range payloads {
				payloads[b] = compress.AppendCompressAuto(codec, payloads[b][:0], src[b*bucketFloats:(b+1)*bucketFloats])
			}
			return nil
		}
		if err := lb.rate("compress."+name+"_encode_gb_s", "GB/s", rawBytes, 1e9, encode); err != nil {
			return err
		}
		if name == "int8" {
			lb.m["compress.int8_wire_ratio"] = metric{4 * bucketFloats / float64(len(payloads[0])), "1"}
		}
		if name == "none" {
			continue // the identity codec's decode is a copy; no workload's time sits there
		}
		err = lb.rate("compress."+name+"_decode_add_gb_s", "GB/s", rawBytes, 1e9, func() error {
			for i := range acc {
				acc[i] = 0
			}
			for _, p := range payloads {
				if err := codec.DecompressAdd(acc, p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// mpi: the in-process transport under every collective.
func (lb *layerBench) mpi() error {
	pair, err := freeWorld(2, 1)
	if err != nil {
		return err
	}
	defer pair.Close()
	pingpong := func(rounds, size int) func() error {
		return func() error {
			return pair.Run(func(c *mpi.Comm) error {
				peer := 1 - c.Rank()
				for i := 0; i < rounds; i++ {
					if c.Rank() == 0 {
						if err := c.SendOwned(peer, 1, mpi.GetBytes(size)); err != nil {
							return err
						}
					}
					b, err := c.Recv(peer, 1)
					if err != nil {
						return err
					}
					mpi.PutBytes(b)
					if c.Rank() == 1 {
						if err := c.SendOwned(peer, 1, mpi.GetBytes(size)); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}
	}
	const rounds = 5000
	if err := lb.cost("mpi.pingpong_us", "us", rounds, 1e6, pingpong(rounds, 64)); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pingpong(rounds, 64)(); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	lb.m["mpi.allocs_per_msg"] = metric{float64(m1.Mallocs-m0.Mallocs) / (2 * rounds), "count"}

	// 1 MiB of floats through the calls the raw collectives make — encode
	// into a pooled buffer, hand it over, decode on the other side — once in
	// each direction per round.
	const bigFloats, bigRounds = 1 << 18, 20
	bufs := [2][]float32{randomFloats(bigFloats, lb.seed), make([]float32, bigFloats)}
	err = lb.rate("mpi.sendrecv_mb_s", "MB/s", 2*4*bigFloats*bigRounds, 1e6, func() error {
		return pair.Run(func(c *mpi.Comm) error {
			buf, peer := bufs[c.Rank()], 1-c.Rank()
			for i := 0; i < bigRounds; i++ {
				if c.Rank() == 0 {
					if err := c.SendFloats(peer, 2, buf); err != nil {
						return err
					}
				}
				if err := c.RecvFloatsInto(buf, peer, 2); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.SendFloats(peer, 2, buf); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}

	quad, err := freeWorld(4, 1)
	if err != nil {
		return err
	}
	defer quad.Close()
	payload := make([]byte, 1024)
	return lb.cost("mpi.bcast_us", "us", 2000, 1e6, func() error {
		return quad.Run(func(c *mpi.Comm) error {
			for i := 0; i < 2000; i++ {
				b, err := c.Bcast(0, payload)
				if err != nil {
					return err
				}
				if c.Rank() != 0 {
					mpi.PutBytes(b)
				}
			}
			return nil
		})
	})
}

// sgd: the update of wide_multicolor's model, whole and as the quarter shard
// one of four ranks owns under the sharded optimizer.
func (lb *layerBench) sgd() error {
	params := findWorkload("wide_multicolor").model(lb.seed).Params()
	rng := tensor.NewRNG(lb.seed)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 1e-3 * (rng.Float32() - 0.5)
		}
	}
	full := sgd.New(params, sgd.DefaultConfig())
	if err := lb.cost("sgd.step_ms", "ms", 20, 1e3, repeat(20, func() error { full.Step(0.05); return nil })); err != nil {
		return err
	}
	// Parameter 0 (fc1's weight, 294912 of the 395912 floats) is far more
	// than a quarter, so the balanced quarter shard is its neighbours: the
	// rest of the model, about a quarter of the elements.
	shard := sgd.NewShard(params, sgd.DefaultConfig(), 1, len(params))
	return lb.cost("sgd.shard_step_ms", "ms", 20, 1e3, repeat(20, func() error { shard.Step(0.05); return nil }))
}

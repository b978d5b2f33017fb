// benchtool runs the repository's measured workloads, one subcommand each:
//
//	benchtool exp [-nodes N] [fig5 … fig12 table1 table2]   paper tables/figures from the calibrated cluster model (default: all)
//	benchtool compress -codec int8                          codec trade-off of a real training run: wire bytes vs final loss
//	benchtool overlap|shard|hier                            pair rows: one job under two settings, compared (pair.go)
//	benchtool allocs [-baseline BENCH_alloc.json]           allocations per step, gated against a committed report
//	benchtool kernels [-baseline BENCH_kernels.json]        kernel throughput, gated against a committed report
//	benchtool chaos -scenario kill -transport tcp           elastic recovery under a seeded fault schedule
//	benchtool sim | sim-calibrate                           network-simulator sweep, and its live calibration gate
//
// Every workload but exp and compress writes a JSON report: to -json when
// given (which is how BENCH_alloc.json and BENCH_kernels.json are
// re-recorded), to a fresh file in the OS temp directory otherwise — and
// writes it before any of its gates can fail the run. The pool width of
// every workload is the runtime's: GOMAXPROCS=2 benchtool kernels.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/simcluster"
)

// commands is every subcommand, in usage order. Each parses its own flags:
// a flag exists where the Makefile, CI or the docs vary it, or where it is
// a size, seed or path of the run; the rest are constants beside their use.
var commands = []struct {
	name string
	run  func(args []string) error
}{
	{"exp", cmdExp},
	{"compress", cmdCompress},
	{"overlap", func(args []string) error { return cmdPair(overlapRow(), args) }},
	{"shard", func(args []string) error { return cmdPair(shardRow(), args) }},
	{"hier", cmdHier},
	{"allocs", cmdAllocs},
	{"kernels", cmdKernels},
	{"chaos", cmdChaos},
	{"sim", cmdSim},
	{"sim-calibrate", cmdSimCalibrate},
}

func main() { os.Exit(dispatch(os.Args[1:], os.Stderr)) }

// dispatch runs the subcommand args names and returns the exit status: 2
// when no subcommand matches (a FlagSet exits 2 on its own for a bad flag),
// 1 when the subcommand returns an error — a bad size, a failed run or gate.
func dispatch(args []string, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				if err := c.run(args[1:]); err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				return 0
			}
		}
		fmt.Fprintf(stderr, "benchtool: unknown subcommand %q\n", args[0])
	}
	fmt.Fprint(stderr, "usage: benchtool <subcommand> [flags]; subcommands:")
	for _, c := range commands {
		fmt.Fprint(stderr, " ", c.name)
	}
	fmt.Fprintln(stderr, "\n       benchtool <subcommand> -h lists a subcommand's flags")
	return 2
}

// Flags several subcommands share, so each keeps one spelling.
func jsonFlag(fs *flag.FlagSet) *string {
	return fs.String("json", "", "write the report to this file instead of a temp path")
}

func baselineFlag(fs *flag.FlagSet) *string {
	return fs.String("baseline", "", "compare the run against this committed report and fail on regression")
}

func learnersFlag(fs *flag.FlagSet, p *int) { fs.IntVar(p, "learners", 4, "learner (rank) count") }

func stepsFlag(fs *flag.FlagSet, p *int) { fs.IntVar(p, "steps", 60, "training steps") }

func devicesFlag(fs *flag.FlagSet, p *int) { fs.IntVar(p, "devices", 2, "devices per learner") }

// cmdPair runs one pair row at the sizes its flags give.
func cmdPair(s pairSpec, args []string) error {
	fs := flag.NewFlagSet(s.name, flag.ExitOnError)
	learnersFlag(fs, &s.learners)
	devicesFlag(fs, &s.devices)
	stepsFlag(fs, &s.steps)
	jsonPath := jsonFlag(fs)
	fs.Parse(args)
	return runPair(s, *jsonPath)
}

func cmdHier(args []string) error {
	fs := flag.NewFlagSet("hier", flag.ExitOnError)
	nodes := fs.Int("nodes", 2, "simulated node count")
	ranks := fs.Int("ranks", 4, "learner ranks per node")
	var devices, steps int
	devicesFlag(fs, &devices)
	stepsFlag(fs, &steps)
	jsonPath := jsonFlag(fs)
	fs.Parse(args)
	s, err := hierRow(*nodes, *ranks)
	if err != nil {
		return err
	}
	s.devices, s.steps = devices, steps
	return runPair(s, *jsonPath)
}

func cmdAllocs(args []string) error {
	s := allocsRow()
	fs := flag.NewFlagSet(s.name, flag.ExitOnError)
	learnersFlag(fs, &s.learners)
	devicesFlag(fs, &s.devices)
	stepsFlag(fs, &s.steps)
	jsonPath, baseline := jsonFlag(fs), baselineFlag(fs)
	fs.Parse(args)
	return allocsWorkload(s, *jsonPath, *baseline)
}

func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ExitOnError)
	jsonPath, baseline := jsonFlag(fs), baselineFlag(fs)
	fs.Parse(args)
	return kernelsWorkload(*jsonPath, *baseline)
}

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var o chaosOpts
	learnersFlag(fs, &o.learners)
	stepsFlag(fs, &o.steps)
	fs.Int64Var(&o.seed, "seed", 1, "fault-injection seed (equal seeds reproduce the run bit for bit)")
	fs.StringVar(&o.scenario, "scenario", "kill", "kill (plain crashes), kill-negotiation (a second victim dies inside the membership negotiation), kill-restore (a second victim dies after applying the restored checkpoint), or netsplit (crashes under seeded message loss, mem only)")
	fs.StringVar(&o.transport, "transport", elastic.TransportMem, "mem (in-process mailboxes) or tcp (real loopback sockets)")
	jsonPath := jsonFlag(fs)
	fs.Parse(args)
	o.jsonPath = *jsonPath
	return chaosWorkload(o)
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	nodes := fs.Int("nodes", 64, "largest swept node count (2×4 and 16×ranks are always included)")
	ranks := fs.Int("ranks", 8, "ranks per node")
	seed := fs.Uint64("seed", 1, "jitter seed (equal seeds reproduce traces bit for bit)")
	jsonPath := jsonFlag(fs)
	fs.Parse(args)
	return simWorkload(*nodes, *ranks, *seed, *jsonPath)
}

func cmdSimCalibrate(args []string) error {
	fs := flag.NewFlagSet("sim-calibrate", flag.ExitOnError)
	jsonPath := jsonFlag(fs)
	fs.Parse(args)
	return simCalibrateWorkload(*jsonPath)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	codec := fs.String("codec", "none", "gradient wire format: none, int8, topk or bf16")
	var learners, steps int
	learnersFlag(fs, &learners)
	stepsFlag(fs, &steps)
	fs.Parse(args)
	return compressWorkload(*codec, learners, steps)
}

// expIDs is every experiment, in the paper's order.
var expIDs = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"table1", "table2"}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	nodes := fs.Int("nodes", 16, "node count for fig5")
	fs.Parse(args)
	ids := fs.Args()
	if len(ids) == 0 {
		ids = expIDs
	}
	c := simcluster.New(64, simcluster.DefaultParams())
	for _, id := range ids {
		tbl, err := runExp(c, id, *nodes)
		if err != nil {
			return fmt.Errorf("benchtool: %s: %w", id, err)
		}
		fmt.Println(tbl)
	}
	return nil
}

// compressWorkload trains a fixed synthetic workload through the bucketed
// compressed allreduce and prints the codec's bytes-moved/accuracy trade-off.
// Every parameter except the codec is held constant (fixed seeds, slice-
// dealt batches), so runs with different -codec values are directly
// comparable: same data, same model, same schedule.
func compressWorkload(codec string, learners, steps int) error {
	const classes, size, images, globalBatch = 3, 8, 24, 12
	if learners <= 0 || globalBatch%learners != 0 || steps < 1 {
		return fmt.Errorf("benchtool: compress needs at least one step and -learners dividing the fixed global batch %d (got %d) so runs stay comparable", globalBatch, learners)
	}
	dataX, dataLabels := core.SyntheticTensorData(images, classes, size, 23)
	newReplica := func(seed int64) nn.Layer {
		return core.SmallBNFreeCNN(classes, size, 500+seed)
	}
	res, err := elastic.Run(elastic.Config{
		Identities:  learners,
		GlobalBatch: globalBatch,
		Steps:       steps,
		NewReplica:  newReplica,
		NewSource:   core.SliceSources(dataX, dataLabels),
		InputC:      3, InputH: size, InputW: size,
		Learner: core.Config{
			Allreduce: allreduce.AlgMultiColor,
			Schedule:  sgd.Const(0.1),
			SGD:       sgd.DefaultConfig(),
			Compression: compress.Config{
				Codec:         codec,
				TopKRatio:     0.1,
				ErrorFeedback: true,
				BucketFloats:  2048,
			},
		},
	})
	if err != nil {
		return err
	}
	losses := res.Losses
	tail := 5
	if tail > len(losses) {
		tail = len(losses)
	}
	var finalLoss float64
	for _, l := range losses[len(losses)-tail:] {
		finalLoss += l
	}
	finalLoss /= float64(tail)
	cs := res.Ranks[0].CommStats
	moved := cs.BytesSent + cs.BytesRecv
	fmt.Printf("compressed-allreduce workload: codec=%s learners=%d steps=%d model=bnfree-cnn\n", codec, learners, steps)
	fmt.Printf("  BytesMoved: %d (allreduce wire bytes, rank 0, send+recv)\n", moved)
	fmt.Printf("  raw equivalent: %d bytes (compression ratio %.2fx)\n", 2*cs.RawBytes, cs.Ratio())
	fmt.Printf("  final loss: %.6f (mean over ranks and the last %d steps; first step %.6f)\n", finalLoss, tail, losses[0])
	return nil
}

func runExp(c *simcluster.Cluster, id string, fig5Nodes int) (*simcluster.Table, error) {
	counts := []int{8, 16, 32}
	switch strings.ToLower(id) {
	case "fig5":
		_, tbl, err := c.Fig5(fig5Nodes, []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		return tbl, err
	case "fig6":
		_, _, tbl, err := c.Fig6(counts)
		return tbl, err
	case "fig7":
		_, tbl, err := c.FigShuffle(simcluster.ImageNet22k, counts)
		return tbl, err
	case "fig8":
		_, tbl, err := c.FigShuffle(simcluster.ImageNet1k, counts)
		return tbl, err
	case "fig9":
		_, tbl, err := c.Fig9([]int{1, 4, 8, 16})
		return tbl, err
	case "fig10":
		_, tbl, err := c.FigDIMD(simcluster.ImageNet1k, counts)
		return tbl, err
	case "fig11":
		_, tbl, err := c.FigDIMD(simcluster.ImageNet22k, counts)
		return tbl, err
	case "fig12":
		_, tbl, err := c.Fig12(counts)
		return tbl, err
	case "table1":
		_, tbl, err := c.Table1(counts)
		return tbl, err
	case "table2":
		_, tbl, err := c.Table2()
		return tbl, err
	default:
		return nil, fmt.Errorf("unknown experiment (want one of %s)", strings.Join(expIDs, " "))
	}
}

// Command bench is the repository's end-to-end benchmark: four training
// workloads driven through the public functions of the packages under
// internal/ and timed from outside. See README.md beside this file.
//
//	bench -workload <name> [-seed n] [-seconds s] [-trace 0|1]   one workload, in this process
//	bench [-seed n] [-seconds s] [-trace 0|1]                    all four, each in a child process
//	bench -compare A.jsonl B.jsonl                               judge B against A with BENCHMARK.json's bounds
//
// A run is a fixed number of steps: -seconds only picks it (workload.stepsFor),
// so two commits given the same flags do the same work.
//
// A workload run prints two JSON lines: a report (the shared envelope, the
// checks, every metric) and, last, the result object the driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to: ranks and devices are
// goroutines, so OS threads doing work never exceed it at any world size.
const procs = 2

// setupReps is how many times a run sets the workload up; setup_s is the
// median, the last instance is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the envelope every workload run shares, printed before the
// result; -compare reads these lines.
type report struct {
	Workload    string  `json:"workload"`
	Trace       bool    `json:"trace"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Steps       int     `json:"steps"`        // steps of the measured loop
	StepSamples int     `json:"step_samples"` // samples behind step_ms_p50 / core.step_ms_p95
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GitSHA      string  `json:"git_sha"`
	// LoadAvgStart is the 1-minute load average when the measured loop
	// started; StealFrac the share of the machine's CPU time that went to
	// steal+iowait during it. A run with more than 5% is marked disturbed:
	// reported, never gated, never retried.
	LoadAvgStart float64         `json:"load_avg_start"`
	StealFrac    float64         `json:"steal_frac"`
	Disturbed    bool            `json:"disturbed"`
	Checks       map[string]bool `json:"checks"`
	// FirstLoss and FinalLoss are the mean over ranks of the first and the
	// last 20 measured steps' losses.
	FirstLoss float64 `json:"first_loss"`
	FinalLoss float64 `json:"final_loss"`
	// StepMsP50 is the median of rank 0's Learner.Step durations.
	StepMsP50 float64 `json:"step_ms_p50"`
	// MaxRSSMiB is the process's ru_maxrss, set-ups included.
	MaxRSSMiB float64 `json:"max_rss_mb"`
	// SetupSWall is the median set-up and ImagesPerSWall global batch × steps
	// ÷ the chunks' wall time, both as the clock gave them; MemRefMs the
	// median memory-reference pass of the run (memRefQuietSec when the
	// neighbours are quiet). Untraced runs only.
	SetupSWall     float64 `json:"setup_s_wall,omitempty"`
	ImagesPerSWall float64 `json:"images_per_s_wall,omitempty"`
	MemRefMs       float64 `json:"mem_ref_ms,omitempty"`
	Error          string  `json:"error,omitempty"`
	result
}

type options struct {
	seed     int64
	steps    int     // steps of an untraced run; the traced pass runs half of them
	seconds  float64 // the run length steps was sized for; the traced pass spends half on the layers
	reps     int     // set-ups per run
	trace    bool
	traceOut string
}

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "", "run this workload in this process (default: all four, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: data, model initialisation and DIMD RNGs derive from it")
	seconds := flag.Float64("seconds", nominalSeconds, "sizes the run: every workload runs its fixed step count scaled by seconds/30, in whole chunks")
	trace := flag.Int("trace", 0, "1: the traced pass — per-layer metrics in place of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	compare := flag.Bool("compare", false, "compare the runs in two files of report lines: bench -compare A B")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A B"))
		}
		failed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
	case flag.NArg() > 0:
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *name == "":
		if err := runChildren(); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep := runWorkload(w, options{
			seed: *seed, steps: w.stepsFor(*seconds), seconds: *seconds, reps: setupReps,
			trace: *trace != 0, traceOut: *traceOut,
		})
		if err := printReport(rep); err != nil {
			fatal(err)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printReport(rep *report) error {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(rep.result)
}

// runChildren runs every workload in its own child process, so peak RSS,
// heap state and GC pacing are per workload, passing the flags through.
func runChildren() error {
	var args []string
	flag.Visit(func(f *flag.Flag) { args = append(args, "-"+f.Name, f.Value.String()) })
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}

// runWorkload sets the workload up, measures it and checks its outputs. A
// failure is reported in the report (Correct false), never as a panic.
func runWorkload(w *workload, o options) *report {
	rep := &report{
		Workload: w.name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GitSHA: gitSHA(), Checks: map[string]bool{},
		result: result{Metrics: map[string]metric{}},
	}
	fail := func(err error) *report {
		rep.Error = err.Error()
		rep.Correct = false
		if rep.Attempted == 0 {
			rep.Attempted, rep.Failed = 1, 1
		}
		return rep
	}

	reps := o.reps
	if o.trace {
		reps = 1 // the traced pass does not report setup_s
	}
	var j *job
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if j != nil {
			j.close()
			runtime.GC() // so one set-up's garbage is not collected on the next one's clock
		}
		t0 := time.Now()
		var err error
		if j, err = setup(w, o.seed); err != nil {
			return fail(err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer j.close()

	// The untraced pass states its times against the memory reference, run
	// after every chunk; the traced pass compares its two interleaved halves
	// by the clock, which treats both alike.
	var ref *memRef
	var perStep []float64 // per chunk: seconds a step took ÷ seconds the reference took after it
	var refSec []float64
	if !o.trace {
		var err error
		if ref, err = newMemRef(); err != nil {
			return fail(err)
		}
		defer ref.close()
		ref.pass() // the first pass pays for the caches the set-ups left cold
	}

	var rec *recorder
	total := o.steps
	if o.trace {
		rec = newRecorder(w.learners)
		total /= 2 // every other chunk traced: a quarter of the steps
		if total < 2*w.chunk {
			return fail(fmt.Errorf("%s: the traced pass needs a traced and an untraced chunk, %d steps; raise -seconds", w.name, 4*w.chunk))
		}
	}

	// Collect, and hand the set-ups' garbage back to the OS, so that the
	// resident set sampled below is the training loop's.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr0 := j.world.Traffic()
	rep.LoadAvgStart = loadAvg()
	cpu0 := readCPU()
	// In the traced pass every other chunk is traced, so the traced and the
	// untraced throughput see the same machine; [1] is the traced side.
	var wall [2]time.Duration
	var steps [2]int
	var runErr error
	loopRSS := 0.0
	for i := 0; j.steps < total; i++ {
		n := min(w.chunk, total-j.steps)
		side, r := 0, (*recorder)(nil)
		if o.trace && i%2 == 1 {
			side, r = 1, rec
		}
		t0 := time.Now()
		if runErr = j.run(n, r); runErr != nil {
			break
		}
		d := time.Since(t0)
		wall[side] += d
		steps[side] += n
		loopRSS = math.Max(loopRSS, rssMiB())
		if ref != nil {
			pass := ref.pass().Seconds()
			perStep = append(perStep, d.Seconds()/float64(n)/pass)
			refSec = append(refSec, pass)
		}
	}
	cpu1 := readCPU()
	tr1 := j.world.Traffic()
	runtime.ReadMemStats(&m1)
	rep.StealFrac = cpu1.stolenSince(cpu0)
	rep.Disturbed = rep.StealFrac > 0.05
	rep.Steps = j.steps
	rep.StepSamples = len(j.stepNs)
	rep.Attempted = j.steps
	rep.Failed = int(j.failed.Load())
	if runErr != nil {
		return fail(runErr)
	}

	firstLoss, lastLoss, finite := j.lossMeans()
	rep.FirstLoss, rep.FinalLoss = firstLoss, lastLoss
	identical, err := j.replicasIdentical()
	if err != nil {
		return fail(err)
	}
	n := float64(j.steps)
	interPerStep := float64(tr1.InterBytes-tr0.InterBytes-j.shuffled.InterBytes) / n
	intraPerStep := float64(tr1.IntraBytes-tr0.IntraBytes-j.shuffled.IntraBytes) / n
	rep.Checks["replicas_bitwise_identical"] = identical
	rep.Checks["losses_finite"] = finite
	rep.Checks["no_failed_steps"] = rep.Failed == 0
	if j.steps >= 2*lossWindow { // otherwise the first and the last window overlap
		rep.Checks["loss_decreased"] = lastLoss < firstLoss
	}
	if w.cfg.Topology.IsSet() {
		rep.Checks["inter_bytes_below_flat"] = interPerStep < float64(j.flatInterBytesPerStep())
	}
	rep.Correct = true
	for _, ok := range rep.Checks {
		rep.Correct = rep.Correct && ok
	}

	stepMs := make([]float64, len(j.stepNs))
	for i, ns := range j.stepNs {
		stepMs[i] = float64(ns) / 1e6
	}
	sort.Float64s(stepMs)
	imagesPerS := func(side int) float64 {
		return float64(w.globalBatch()*steps[side]) / wall[side].Seconds()
	}
	rep.StepMsP50 = quantile(stepMs, 0.5)
	rep.MaxRSSMiB = maxRSSMiB()
	m := rep.Metrics
	if !o.trace {
		// A set-up is timed once, not chunk by chunk, so it is held against
		// the run's median pass: that follows the machine's drift over the
		// minutes between runs, which is what moves set-up times, and no
		// single pass's luck gets into it.
		rep.SetupSWall = median(setups)
		rep.ImagesPerSWall = imagesPerS(0)
		rep.MemRefMs = median(refSec) * 1e3
		m["setup_s"] = metric{rep.SetupSWall * memRefQuietSec / median(refSec), "s"}
		m["images_per_s"] = metric{float64(w.globalBatch()) / (median(perStep) * memRefQuietSec), "img/s"}
		m["wire_bytes_per_step"] = metric{intraPerStep + interPerStep, "B"}
		m["allocs_per_step"] = metric{float64(m1.Mallocs-m0.Mallocs) / n, "count"}
		m["alloc_kb_per_step"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / n / 1024, "KiB"}
		m["peak_rss_mb"] = metric{loopRSS - ref.residentMiB(), "MiB"}
		return rep
	}

	b := rec.breakdown()
	sort.Float64s(b.stepsMs)
	rep.StepSamples = b.steps
	m["core.step_ms"] = metric{b.stepMs, "ms"}
	m["core.data_ms"] = metric{b.children[0], "ms"}
	m["core.compute_ms"] = metric{b.children[1], "ms"}
	m["core.intranode_ms"] = metric{b.children[2], "ms"}
	m["core.exchange_exposed_ms"] = metric{b.children[3], "ms"}
	m["core.update_ms"] = metric{b.children[4], "ms"}
	m["core.self_ms"] = metric{b.selfMs, "ms"}
	m["core.self_frac"] = metric{b.selfMs / b.stepMs, "1"}
	m["core.step_ms_p50"] = metric{quantile(b.stepsMs, 0.5), "ms"}
	m["core.step_ms_p95"] = metric{quantile(b.stepsMs, 0.95), "ms"}
	m["core.final_loss"] = metric{lastLoss, "nats"}
	m["core.trace_overhead_frac"] = metric{1 - imagesPerS(1)/imagesPerS(0), "1"}
	if err := measureLayers(rec, o.seed, o.seconds/2, m); err != nil {
		return fail(err)
	}
	if o.traceOut != "" {
		if err := rec.write(o.traceOut); err != nil {
			return fail(err)
		}
	}
	return rep
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func loadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 when the kernel's format is not the expected one
	return v
}

// cpuTicks is the first line of /proc/stat: the machine's cumulative CPU
// time by class, in clock ticks.
type cpuTicks struct{ total, stolen float64 }

func readCPU() cpuTicks {
	var c cpuTicks
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return c
	}
	// user nice system idle iowait irq softirq steal: guest time is already
	// inside user, so the later columns are left out of the total.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 4 || i == 7 {
			c.stolen += v
		}
	}
	return c
}

// stolenSince is the share of the machine's CPU time since earlier that went
// to steal and iowait; 0 where /proc/stat is not available.
func (c cpuTicks) stolenSince(earlier cpuTicks) float64 {
	if c.total <= earlier.total {
		return 0
	}
	return (c.stolen - earlier.stolen) / (c.total - earlier.total)
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssMiB is the process's resident set right now; 0 where /proc is missing.
func rssMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

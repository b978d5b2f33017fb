package main

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
)

// allocsRun is one schedule's steady-state allocation profile, measured
// process-wide (all ranks' goroutines) across the measured steps.
type allocsRun struct {
	AllocsPerStep    float64 `json:"allocs_per_step"`
	BytesPerStep     float64 `json:"bytes_per_step"`
	GCPauseNsPerStep float64 `json:"gc_pause_ns_per_step"`
	NumGC            uint32  `json:"num_gc"`
}

// allocsProcs is the two schedules' profiles at one GOMAXPROCS.
type allocsProcs struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	Phased     allocsRun `json:"phased"`
	Overlapped allocsRun `json:"overlapped"`
}

// allocsReport is the JSON schema of the allocs workload; BENCH_alloc.json
// at the repo root is one of these, and CI gates on it.
type allocsReport struct {
	Workload       string        `json:"workload"`
	Codec          string        `json:"codec"`
	NumCPU         int           `json:"num_cpu"`
	Learners       int           `json:"learners"`
	DevicesPerNode int           `json:"devices_per_node"`
	WarmupSteps    int           `json:"warmup_steps"`
	Steps          int           `json:"steps"`
	BucketFloats   int           `json:"bucket_floats"`
	GradFloats     int           `json:"grad_floats"`
	Procs          []allocsProcs `json:"procs"`
}

// allocsProcsRun lists the GOMAXPROCS values the workload runs at, each gated
// against the baseline's row for the same value; the report prints the
// second's count less the first's.
var allocsProcsRun = []int{1, 2}

// The gate: allocs/step may grow to max(allocsMaxRatio × baseline,
// baseline + allocsSlack) before the run fails — 5 %, or two allocations
// where 5 % of a small count is less than that.
const (
	allocsMaxRatio = 1.05
	allocsSlack    = 2
)

// allocsRow is the job whose hot path is profiled: the overlap row's two
// schedules on a comm-dominated MLP, over a free world.
func allocsRow() pairSpec {
	return pairSpec{
		name: "allocs", arms: [2]string{"phased", "overlapped"},
		model: core.AllocBenchModel, seed: 700,
		classes: 8, size: 16, batch: 8, bucket: 1024,
		arm: overlapArm,
	}
}

// gate fails if either schedule, at any GOMAXPROCS, allocates past the limit
// of what base recorded at the same GOMAXPROCS.
func (rep *allocsReport) gate(base *allocsReport) error {
	for _, got := range rep.Procs {
		i := slices.IndexFunc(base.Procs, func(b allocsProcs) bool { return b.GOMAXPROCS == got.GOMAXPROCS })
		if i < 0 {
			return fmt.Errorf("benchtool: allocs baseline has no run at gomaxprocs=%d (re-record it with make allocs-baseline)", got.GOMAXPROCS)
		}
		want := base.Procs[i]
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"phased", got.Phased.AllocsPerStep, want.Phased.AllocsPerStep},
			{"overlapped", got.Overlapped.AllocsPerStep, want.Overlapped.AllocsPerStep},
		} {
			limit := max(allocsMaxRatio*m.want, m.want+allocsSlack)
			if m.got > limit {
				return fmt.Errorf("benchtool: %s allocs/step at gomaxprocs=%d regressed: %.1f vs baseline %.1f (limit %.1f)",
					m.name, got.GOMAXPROCS, m.got, m.want, limit)
			}
			fmt.Printf("  %-10s gomaxprocs=%d allocs/step %.1f within the limit %.1f of baseline %.1f\n", m.name, got.GOMAXPROCS, m.got, limit, m.want)
		}
	}
	return nil
}

// allocsWorkload measures allocations per training step for the two arms of
// s on an in-process cluster, once at each of allocsProcsRun. Warmup steps
// run first so the shared buffer pools are populated and the numbers reflect
// steady state. When baselinePath is set, the run is gated against that
// report.
func allocsWorkload(s pairSpec, jsonPath, baselinePath string) error {
	const warmup = 5
	if s.learners < 2 {
		return fmt.Errorf("benchtool: allocs needs at least 2 learners (got %d) to exercise the exchange", s.learners)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	x, labels := s.data()

	measure := func(second bool) (allocsRun, int, error) {
		world := mpi.NewWorld(s.learners)
		defer world.Close()
		var m0, m1 runtime.MemStats
		gradFloats := 0
		err := world.Run(func(c *mpi.Comm) error {
			replicas := make([]nn.Layer, s.devices)
			for d := range replicas {
				replicas[d] = s.replica(int64(c.Rank()*s.devices + d))
			}
			src := &core.SliceSource{X: x, Labels: labels, Rank: c.Rank(), Ranks: s.learners}
			l, err := core.NewLearner(c, replicas, src, 3, s.size, s.size, s.config(second))
			if err != nil {
				return err
			}
			defer l.Close()
			if c.Rank() == 0 {
				gradFloats = l.Engine().GradSize()
			}
			for t := 0; t < warmup; t++ {
				if _, err := l.Step(); err != nil {
					return err
				}
			}
			// The dissemination barrier makes every rank's exit depend on
			// every rank's entry, so between the paired barriers all other
			// ranks are parked in the second barrier while rank 0 snapshots
			// the process-wide heap counters.
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&m0)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for t := 0; t < s.steps; t++ {
				if _, err := l.Step(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&m1)
			}
			return c.Barrier()
		})
		if err != nil {
			return allocsRun{}, 0, err
		}
		n := float64(s.steps)
		return allocsRun{
			AllocsPerStep:    float64(m1.Mallocs-m0.Mallocs) / n,
			BytesPerStep:     float64(m1.TotalAlloc-m0.TotalAlloc) / n,
			GCPauseNsPerStep: float64(m1.PauseTotalNs-m0.PauseTotalNs) / n,
			NumGC:            m1.NumGC - m0.NumGC,
		}, gradFloats, nil
	}

	rep := allocsReport{
		Workload:       s.name,
		Codec:          pairCodec,
		NumCPU:         runtime.NumCPU(),
		Learners:       s.learners,
		DevicesPerNode: s.devices,
		WarmupSteps:    warmup,
		Steps:          s.steps,
		BucketFloats:   s.bucket,
	}
	for _, procs := range allocsProcsRun {
		runtime.GOMAXPROCS(procs)
		row := allocsProcs{GOMAXPROCS: procs}
		var err error
		if row.Phased, rep.GradFloats, err = measure(false); err != nil {
			return fmt.Errorf("benchtool: allocs phased run at gomaxprocs=%d: %w", procs, err)
		}
		if row.Overlapped, _, err = measure(true); err != nil {
			return fmt.Errorf("benchtool: allocs overlapped run at gomaxprocs=%d: %w", procs, err)
		}
		rep.Procs = append(rep.Procs, row)
	}
	fmt.Printf("allocs workload: codec=%s learners=%d devices=%d steps=%d (+%d warmup) grad=%d floats buckets=%d floats cpus=%d\n",
		rep.Codec, s.learners, s.devices, s.steps, warmup, rep.GradFloats, s.bucket, rep.NumCPU)
	for _, row := range rep.Procs {
		for i, r := range []allocsRun{row.Phased, row.Overlapped} {
			fmt.Printf("  %-10s gomaxprocs=%d %10.1f allocs/step  %12.0f bytes/step  gc pause %8.0f ns/step  (%d GCs)\n",
				s.arms[i], row.GOMAXPROCS, r.AllocsPerStep, r.BytesPerStep, r.GCPauseNsPerStep, r.NumGC)
		}
	}
	one, two := rep.Procs[0], rep.Procs[1]
	fmt.Printf("  gomaxprocs 2 - 1: phased %+.1f, overlapped %+.1f allocs/step\n",
		two.Phased.AllocsPerStep-one.Phased.AllocsPerStep, two.Overlapped.AllocsPerStep-one.Overlapped.AllocsPerStep)

	if err := writeReport(jsonPath, "BENCH_alloc.*.json", rep); err != nil {
		return err
	}
	if baselinePath == "" {
		return nil
	}
	var base allocsReport
	if err := readReport(baselinePath, &base); err != nil {
		return err
	}
	return rep.gate(&base)
}

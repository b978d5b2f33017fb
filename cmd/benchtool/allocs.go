package main

import (
	"fmt"
	"runtime"

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

// allocsReport is the JSON schema of the allocs workload; BENCH_alloc.json
// at the repo root is one of these, and CI gates on it.
type allocsReport struct {
	Workload       string    `json:"workload"`
	Codec          string    `json:"codec"`
	Learners       int       `json:"learners"`
	DevicesPerNode int       `json:"devices_per_node"`
	WarmupSteps    int       `json:"warmup_steps"`
	Steps          int       `json:"steps"`
	BucketFloats   int       `json:"bucket_floats"`
	GradFloats     int       `json:"grad_floats"`
	Phased         allocsRun `json:"phased"`
	Overlapped     allocsRun `json:"overlapped"`
}

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

// gate fails if either schedule allocates past the limit of what base
// recorded.
func (rep *allocsReport) gate(base *allocsReport) error {
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"phased", rep.Phased.AllocsPerStep, base.Phased.AllocsPerStep},
		{"overlapped", rep.Overlapped.AllocsPerStep, base.Overlapped.AllocsPerStep},
	} {
		limit := max(allocsMaxRatio*m.want, m.want+allocsSlack)
		if m.want > 0 && m.got > limit {
			return fmt.Errorf("benchtool: %s allocs/step regressed: %.1f vs baseline %.1f (limit %.1f)",
				m.name, m.got, m.want, limit)
		}
		fmt.Printf("  %-10s allocs/step %.1f within the limit %.1f of baseline %.1f\n", m.name, m.got, limit, m.want)
	}
	return nil
}

// allocsWorkload measures allocations per training step for the two arms of
// s on an in-process cluster. Warmup steps run first so the shared buffer
// pools are populated and the numbers reflect steady state. The run holds
// GOMAXPROCS at 1, where the baseline is defined: with more procs the same
// job makes hundreds more allocations a step, not yet attributed. When
// baselinePath is set, the run is gated against that report.
func allocsWorkload(s pairSpec, jsonPath, baselinePath string) error {
	const warmup = 5
	if s.learners < 2 {
		return fmt.Errorf("benchtool: allocs needs at least 2 learners (got %d) to exercise the exchange", s.learners)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

	phased, gradFloats, err := measure(false)
	if err != nil {
		return fmt.Errorf("benchtool: allocs phased run: %w", err)
	}
	overlapped, _, err := measure(true)
	if err != nil {
		return fmt.Errorf("benchtool: allocs overlapped run: %w", err)
	}

	rep := allocsReport{
		Workload:       s.name,
		Codec:          pairCodec,
		Learners:       s.learners,
		DevicesPerNode: s.devices,
		WarmupSteps:    warmup,
		Steps:          s.steps,
		BucketFloats:   s.bucket,
		GradFloats:     gradFloats,
		Phased:         phased,
		Overlapped:     overlapped,
	}
	fmt.Printf("allocs workload: codec=%s learners=%d devices=%d steps=%d (+%d warmup) grad=%d floats buckets=%d floats\n",
		rep.Codec, s.learners, s.devices, s.steps, warmup, gradFloats, s.bucket)
	for i, r := range []allocsRun{phased, overlapped} {
		fmt.Printf("  %-10s %10.0f allocs/step  %12.0f bytes/step  gc pause %8.0f ns/step  (%d GCs)\n",
			s.arms[i], r.AllocsPerStep, r.BytesPerStep, r.GCPauseNsPerStep, r.NumGC)
	}

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

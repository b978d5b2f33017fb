package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sgd"
)

// decodeStrict parses a report file into the struct its workload writes: a
// field the struct does not have is a schema change.
func decodeStrict(t *testing.T, path string, into any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no report on disk: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("%s does not parse into %T: %v", path, into, err)
	}
}

// readPairReport decodes a pair row's report and checks that it survives a
// second trip through encoding/json unchanged.
func readPairReport(t *testing.T, path string) pairReport {
	t.Helper()
	var rep pairReport
	decodeStrict(t, path, &rep)
	again, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back pairReport
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("report changed on a JSON round trip:\n%+v\n%+v", rep, back)
	}
	return rep
}

// Each pair row, at the smallest size its own gates pass, runs to a report
// that says the two arms agree.
func TestPairRowsSmallest(t *testing.T) {
	hier, err := hierRow(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []pairSpec{overlapRow(), shardRow(), hier} {
		s := s
		t.Run(s.name, func(t *testing.T) {
			if s.learners == 0 {
				s.learners = 2
			}
			s.devices, s.steps = 1, 2
			path := filepath.Join(t.TempDir(), s.name+".json")
			if err := runPair(s, path); err != nil {
				t.Fatal(err)
			}
			rep := readPairReport(t, path)
			if !rep.BitwiseIdentical {
				t.Error("bitwise_identical is false")
			}
			if rep.Workload != s.name || rep.Runs[0].Arm != s.arms[0] || rep.Runs[1].Arm != s.arms[1] {
				t.Errorf("report names %q %q/%q, want %q %v", rep.Workload, rep.Runs[0].Arm, rep.Runs[1].Arm, s.name, s.arms)
			}
			if rep.GradFloats == 0 || rep.Speedup <= 0 || len(rep.Ratios) == 0 || len(rep.Runs[1].PerRank) != s.learners {
				t.Errorf("report is missing measurements: %+v", rep)
			}
		})
	}
}

// Arms that do not compute the same thing fail the run, for every row alike,
// and the report that says so is written first.
func TestPairDivergenceFailsAfterReport(t *testing.T) {
	s := shardRow()
	s.learners, s.devices, s.steps = 2, 1, 2
	shard := s.arm
	s.arm = func(cfg *core.Config, second bool) {
		shard(cfg, second)
		if second {
			cfg.Schedule = sgd.Const(0.01)
		}
	}
	path := filepath.Join(t.TempDir(), "diverged.json")
	err := runPair(s, path)
	if err == nil || !strings.Contains(err.Error(), "differ") {
		t.Fatalf("runPair error = %v, want the weight-divergence failure", err)
	}
	if rep := readPairReport(t, path); rep.BitwiseIdentical {
		t.Error("report claims bitwise_identical for diverged arms")
	}
}

// The hier row's own gate fires after the shared one, on its own condition.
func TestHierGateNeedsTwofoldSaving(t *testing.T) {
	s, err := hierRow(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.derive(&armRun{InterBytes: 200}, &armRun{InterBytes: 100}); err != nil {
		t.Errorf("a 2.0x saving failed the gate: %v", err)
	}
	if _, err := s.derive(&armRun{InterBytes: 199}, &armRun{InterBytes: 100}); err == nil {
		t.Error("a 1.99x saving passed the gate")
	}
}

func TestAllocsGateAgainstCommittedBaseline(t *testing.T) {
	var base allocsReport
	decodeStrict(t, filepath.Join("..", "..", "BENCH_alloc.json"), &base)
	var procs []int
	for _, row := range base.Procs {
		procs = append(procs, row.GOMAXPROCS)
	}
	if !slices.Equal(procs, allocsProcsRun) || base.NumCPU <= 0 {
		t.Fatalf("baseline was recorded at gomaxprocs %v on %d cpus, want %v on a recorded machine", procs, base.NumCPU, allocsProcsRun)
	}
	run := base
	run.Procs = slices.Clone(base.Procs)
	if err := run.gate(&base); err != nil {
		t.Errorf("a run equal to the baseline failed: %v", err)
	}
	for i := range run.Procs {
		run.Procs[i].Overlapped.AllocsPerStep = base.Procs[i].Overlapped.AllocsPerStep + allocsSlack
	}
	if err := run.gate(&base); err != nil {
		t.Errorf("allocsSlack more allocations than the baseline failed: %v", err)
	}
	// A return to the parent's 40 allocs/step at 2 procs fails.
	run.Procs[1].Phased.AllocsPerStep = 40
	if err := run.gate(&base); err == nil {
		t.Errorf("40 allocs/step at gomaxprocs=2 passed against the baseline's %.1f", base.Procs[1].Phased.AllocsPerStep)
	}
	// So does a run at a GOMAXPROCS the baseline has no row for.
	run.Procs = []allocsProcs{{GOMAXPROCS: 4}}
	if err := run.gate(&base); err == nil {
		t.Error("a gomaxprocs=4 run passed against a baseline without one")
	}
}

func TestKernelsGateAgainstCommittedBaseline(t *testing.T) {
	var base kernelsReport
	decodeStrict(t, filepath.Join("..", "..", "BENCH_kernels.json"), &base)
	if len(base.Gemm) == 0 || len(base.ConvShapes) == 0 || len(base.Layers) == 0 || base.BF16DecodeAddGBs <= 0 {
		t.Fatalf("baseline is missing rows: %+v", base)
	}
	run := base
	if err := run.comparable(&base, "BENCH_kernels.json"); err != nil {
		t.Errorf("a run equal to the baseline was refused: %v", err)
	}
	if err := run.gate(&base); err != nil {
		t.Errorf("a run equal to the baseline failed: %v", err)
	}
	run.BF16DecodeAddGBs = 0.45 * base.BF16DecodeAddGBs
	if err := run.gate(&base); err == nil {
		t.Error("0.45x the baseline's throughput passed the 2x gate")
	}
	run = base
	run.ConvShapes = append([]convResult(nil), base.ConvShapes...)
	run.ConvShapes[1].ImagesPerSec *= 0.45
	if err := run.gate(&base); err == nil {
		t.Error("0.45x the baseline's conv row passed the 2x gate")
	}
	run = base
	run.GOMAXPROCS++
	if err := run.comparable(&base, "BENCH_kernels.json"); err == nil {
		t.Error("a run at another gomaxprocs was compared")
	}
	run = base
	run.GemmKernel = "portable"
	if err := run.comparable(&base, "BENCH_kernels.json"); err == nil {
		t.Error("a run through another gemm kernel was compared")
	}
}

func TestUnknownSubcommandExitsTwoWithList(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, {"-overlap", "-steps", "10"}, nil} {
		var stderr bytes.Buffer
		if code := dispatch(args, &stderr); code != 2 {
			t.Errorf("dispatch(%q) = %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), " "+c.name) {
				t.Errorf("dispatch(%q) usage does not list %q:\n%s", args, c.name, stderr.String())
			}
		}
	}
}

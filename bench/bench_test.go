package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
)

const specPath = "../BENCHMARK.json"

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(procs)
	os.Exit(m.Run())
}

var (
	shortOnce sync.Once
	shortRuns map[string][2]*report
)

// shortPairs runs every workload twice for ten steps with the same seed.
func shortPairs(t *testing.T) map[string][2]*report {
	t.Helper()
	shortOnce.Do(func() {
		shortRuns = map[string][2]*report{}
		for _, w := range workloads {
			var pair [2]*report
			for i := range pair {
				pair[i] = runWorkload(w, options{seed: 1, steps: 10, reps: 1})
			}
			shortRuns[w.name] = pair
		}
	})
	return shortRuns
}

func TestSameSeedRepeats(t *testing.T) {
	for name, pair := range shortPairs(t) {
		a, b := pair[0], pair[1]
		for _, r := range pair {
			if !r.Correct || r.Failed != 0 || r.Attempted != 10 {
				t.Fatalf("%s: correct=%v attempted=%d failed=%d checks=%v error=%q", name, r.Correct, r.Attempted, r.Failed, r.Checks, r.Error)
			}
		}
		if x, y := a.Metrics["wire_bytes_per_step"].Value, b.Metrics["wire_bytes_per_step"].Value; x != y || x <= 0 {
			t.Errorf("%s: wire_bytes_per_step %v then %v", name, x, y)
		}
		if math.Float64bits(a.FinalLoss) != math.Float64bits(b.FinalLoss) {
			t.Errorf("%s: final loss %v then %v with the same seed and steps", name, a.FinalLoss, b.FinalLoss)
		}
		if x, y := a.Metrics["allocs_per_step"].Value, b.Metrics["allocs_per_step"].Value; math.Abs(x-y) > 0.02*x {
			t.Errorf("%s: allocs_per_step %v then %v, more than 2%% apart", name, x, y)
		}
	}
}

// checkPrinted fails unless got holds exactly the metrics want lists, with
// their units.
func checkPrinted(t *testing.T, what string, want []specMetric, got map[string]metric) {
	t.Helper()
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range want {
		if !nameOK.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", what, m.Name)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not printed", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s is %v", what, m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

func TestSpecMatchesOutput(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
	}
	for name, pair := range shortPairs(t) {
		checkPrinted(t, name, spec.EndToEnd, pair[0].Metrics)
	}
	// The traced pass prints the same per-layer set on every workload; the
	// cheapest one stands for all.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	traced := runWorkload(findWorkload("dimd_input"), options{seed: 1, steps: 200, seconds: 0.5, trace: true, traceOut: tracePath})
	if !traced.Correct {
		t.Fatalf("traced pass: checks=%v error=%q", traced.Checks, traced.Error)
	}
	checkPrinted(t, "traced dimd_input", spec.PerLayer, traced.Metrics)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		seen[ev.Name] = true
	}
	for _, name := range []string{"core.step", "dimd.next_batch", "core.compute", "dimd.shuffle", "allreduce.multicolor_mb_s", "sgd.step_ms"} {
		if !seen[name] {
			t.Errorf("trace file has no %q span", name)
		}
	}
}

func TestMemRef(t *testing.T) {
	ref, err := newMemRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if d := ref.pass(); d <= 0 {
		t.Errorf("a pass took %v", d)
	}
	for g, b := range ref.buf {
		if len(b) != memRefFloats || b[0] != 1 || b[len(b)-1] != 1 {
			t.Errorf("buffer %d: %d floats, ends %v and %v; 1 is the fixed point of a pass", g, len(b), b[0], b[len(b)-1])
		}
	}
	if got := ref.residentMiB(); got != 8 {
		t.Errorf("residentMiB %v, want 8", got)
	}
}

func TestCompareWithItself(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, pair := range shortPairs(t) {
		for _, run := range pair {
			r := *run
			r.Disturbed = false // ten steps are a few clock ticks: one stolen tick is past 5%
			if err := enc.Encode(&r); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(r.result); err != nil { // as on standard output; -compare skips it
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failed, err := compareFiles(&out, specPath, path, path)
	if err != nil {
		t.Fatal(err)
	}
	if failed || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "missing") {
		t.Errorf("a file compared with itself:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "\n"); got < 1+len(workloads) {
		t.Errorf("expected a row per workload and metric, got:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "identical"); got != len(workloads) {
		t.Errorf("expected every workload's final_loss to pair up identical, got:\n%s", out.String())
	}

	// A side without a workload's runs (a child that crashed) fails the
	// comparison; so does one whose only runs were disturbed.
	for name, drop := range map[string]func(*report) bool{
		"absent":    func(r *report) bool { return r.Workload == workloads[0].name },
		"disturbed": func(r *report) bool { r.Disturbed = r.Workload == workloads[0].name; return false },
	} {
		buf.Reset()
		for _, pair := range shortPairs(t) {
			r := *pair[0]
			if !drop(&r) {
				if err := enc.Encode(&r); err != nil {
					t.Fatal(err)
				}
			}
		}
		partial := filepath.Join(t.TempDir(), name+".jsonl")
		if err := os.WriteFile(partial, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		failed, err := compareFiles(&out, specPath, path, partial)
		if err != nil {
			t.Fatal(err)
		}
		if !failed || !strings.Contains(out.String(), "missing") {
			t.Errorf("%s runs of %s on side B did not fail the comparison:\n%s", name, workloads[0].name, out.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "step_ms_p50", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "images_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"slower", steady, []float64{120, 121, 119, 120, 120}, lower, "regressed"},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, lower, "improved"},
		{"same", steady, steady, lower, "within-bound"},
		{"less throughput", steady, []float64{80, 81, 79, 80, 80}, higher, "regressed"},
		{"noisy", []float64{100, 140, 70, 100, 120}, steady, lower, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	loss := func(seed int64, v float64) *report { return &report{Seed: seed, Steps: 100, FinalLoss: v} }
	sideA := []*report{loss(1, 0.5), loss(2, 0.01)}
	for _, c := range []struct {
		name  string
		b     []*report
		pairs int
		want  string
	}{
		{"same bits", []*report{loss(2, 0.01), loss(1, 0.5)}, 2, "identical"},
		{"one seed 1% up", []*report{loss(1, 0.5), loss(2, 0.0101)}, 2, "within-bound"},
		{"one seed 5% up", []*report{loss(1, 0.5), loss(2, 0.0105)}, 2, "regressed"},
		{"other seeds", []*report{loss(3, 0.5)}, 0, "unpaired"},
		{"other step count", []*report{{Seed: 1, Steps: 50, FinalLoss: 0.9}}, 0, "unpaired"},
	} {
		if pairs, _, got := lossVerdict(sideA, c.b); got != c.want || pairs != c.pairs {
			t.Errorf("final_loss, %s: %s over %d pairs, want %s over %d", c.name, got, pairs, c.want, c.pairs)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v and %v, want 2.75 and 8.25", q1, q3)
	}
}

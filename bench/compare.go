package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantile is the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which is
// how the driver measures a metric's spread. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median; 0
// for a single run, which has no spread to show.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// benchSpec is what -compare needs from BENCHMARK.json.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns collects the untraced report lines of a file, which holds the
// standard output of any number of runs; other lines are skipped.
func readRuns(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		runs[r.Workload] = append(runs[r.Workload], &r)
	}
	return runs, sc.Err()
}

// values collects a metric over the runs that were not disturbed: those are
// reported, never judged.
func values(runs []*report, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && !r.Disturbed {
			v = append(v, m.Value)
		}
	}
	return v
}

// wallRows are the clock's own readings of the two timing metrics, which
// -compare prints beside the gated, reference-corrected ones: a stall the
// per-chunk median leaves out shows here.
var wallRows = []struct {
	name, unit string
	of         func(*report) float64
}{
	{"setup_s_wall", "s", func(r *report) float64 { return r.SetupSWall }},
	{"images_per_s_wall", "img/s", func(r *report) float64 { return r.ImagesPerSWall }},
}

func wallValues(runs []*report, of func(*report) float64) []float64 {
	var v []float64
	for _, r := range runs {
		if !r.Disturbed && of(r) > 0 {
			v = append(v, of(r))
		}
	}
	return v
}

// verdict judges side B against side A for one metric of one workload, each
// side taken as the median of its runs: unresolved when either side's own
// spread is wider than the bound, regressed when B is worse by more than the
// bound, improved when B is better by more than the distance between A's
// quartiles, within-bound otherwise.
func verdict(a, b []float64, m specMetric) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worse := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "regressed"
	case worse < 0 && -worse > spread(a):
		v = "improved"
	default:
		v = "within-bound"
	}
	return ratio, v
}

// lossBound is by how much a run's final_loss may exceed that of the other
// side's run of the same seed and steps.
const lossBound = 0.02

// lossVerdict judges final_loss on the runs the two sides share a seed and a
// step count for. Between seeds the loss differs by far more than any bound,
// so medians say nothing; for one seed and step count it repeats to the bit
// while the arithmetic is untouched. ratio is the worst B/A among the pairs.
func lossVerdict(a, b []*report) (pairs int, ratio float64, v string) {
	type key struct {
		seed  int64
		steps int
	}
	sideA := map[key]float64{}
	for _, r := range a {
		sideA[key{r.Seed, r.Steps}] = r.FinalLoss
	}
	identical := true
	for _, r := range b {
		la, ok := sideA[key{r.Seed, r.Steps}]
		if !ok {
			continue
		}
		pairs++
		identical = identical && math.Float64bits(la) == math.Float64bits(r.FinalLoss)
		ratio = math.Max(ratio, r.FinalLoss/la)
	}
	switch {
	case pairs == 0:
		v = "unpaired"
	case identical:
		v = "identical"
	case ratio > 1+lossBound:
		v = "regressed"
	default:
		v = "within-bound"
	}
	return pairs, ratio, v
}

// compareFiles prints one row per workload × end-to-end metric, and one for
// final_loss, and reports whether any row regressed or has no undisturbed run
// on one side — a side that crashed must not pass for one that held its bounds.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (failed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	runsA, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (runs, spread)\tB median (runs, spread)\tB/A\tbound\tverdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(runsA[w.Name], m.Name), values(runsB[w.Name], m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d runs\t%d runs\t\t%g\tmissing\n", w.Name, m.Name, m.Unit, len(a), len(b), m.Bound)
				failed = true
				continue
			}
			ratio, v := verdict(a, b, m)
			failed = failed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d, %.4f)\t%.6g (%d, %.4f)\t%.4f\t%g\t%s\n",
				w.Name, m.Name, m.Unit, median(a), len(a), spread(a), median(b), len(b), spread(b), ratio, m.Bound, v)
		}
		for _, row := range wallRows {
			a, b := wallValues(runsA[w.Name], row.of), wallValues(runsB[w.Name], row.of)
			if len(a) > 0 && len(b) > 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d, %.4f)\t%.6g (%d, %.4f)\t%.4f\t\tnot gated\n",
					w.Name, row.name, row.unit, median(a), len(a), spread(a), median(b), len(b), spread(b), median(b)/median(a))
			}
		}
		pairs, ratio, v := lossVerdict(runsA[w.Name], runsB[w.Name])
		failed = failed || v == "regressed"
		fmt.Fprintf(tw, "%s\tfinal_loss\tnats\t%d pairs of one seed and step count\tworst pair\t%.4f\t%g\t%s\n", w.Name, pairs, ratio, lossBound, v)
		for _, r := range append(append([]*report(nil), runsA[w.Name]...), runsB[w.Name]...) {
			if r.Disturbed {
				fmt.Fprintf(tw, "%s\tnote: the run with seed %d was disturbed (steal+iowait %.1f%% of CPU time) and is left out\n", w.Name, r.Seed, 100*r.StealFrac)
			}
		}
	}
	return failed, tw.Flush()
}

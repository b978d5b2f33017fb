package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

// layerTrack is the pseudo-rank of the layer measurements' own top-level
// spans, so the trace viewer shows them on a row of their own.
const layerTrack = -1

// span is one traced interval. parent indexes the same rank's spans (-1 for
// a top-level span); step is the training step the span belongs to (-1 for
// none), which is the identifier the spans of one step share.
type span struct {
	name       string
	start, end time.Time
	parent     int
	step       int
	// work is how many units (iterations, bytes, flops — the metric's
	// denominator or numerator) the interval covered; 0 when not counted.
	work float64
}

func (s span) ms() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

// recorder keeps every span in memory, one preallocated slice per rank so
// ranks never contend, and writes them out once at exit.
type recorder struct {
	ranks  [][]span
	layers []span // written by the goroutine that runs the layer measurements only
}

func newRecorder(ranks int) *recorder {
	r := &recorder{ranks: make([][]span, ranks), layers: make([]span, 0, 1<<12)}
	for i := range r.ranks {
		r.ranks[i] = make([]span, 0, 1<<15)
	}
	return r
}

func (r *recorder) add(rank int, s span) int {
	if rank == layerTrack {
		r.layers = append(r.layers, s)
		return len(r.layers) - 1
	}
	r.ranks[rank] = append(r.ranks[rank], s)
	return len(r.ranks[rank]) - 1
}

// stepChildren names the five phases of a step in the order they run.
var stepChildren = [5]string{"dimd.next_batch", "core.compute", "core.intranode", "core.exchange_exposed", "core.update"}

// addStep records one Learner.Step as a parent span with five children: the
// data span as timed at the BatchSource seam, and compute, intra-node sum,
// exposed exchange and update from the learner's own phase clock, laid back
// to back after it. What the step span holds beyond its children is core's
// self time.
func (r *recorder) addStep(rank, step int, t0, t1 time.Time, src *timedSource, before, after core.PhaseTimes) {
	parent := r.add(rank, span{name: "core.step", start: t0, end: t1, parent: -1, step: step})
	r.add(rank, span{name: stepChildren[0], start: src.start, end: src.stop, parent: parent, step: step})
	at := src.stop
	for i, sec := range [4]float64{
		after.Compute - before.Compute,
		after.IntraNode - before.IntraNode,
		after.AllReduce - before.AllReduce,
		after.Update - before.Update,
	} {
		end := at.Add(time.Duration(sec * 1e9))
		r.add(rank, span{name: stepChildren[i+1], start: at, end: end, parent: parent, step: step})
		at = end
	}
}

// stepBreakdown is the mean per-step time of rank 0's traced steps, split
// into the five children and the step's self time.
type stepBreakdown struct {
	steps    int
	stepMs   float64
	children [5]float64
	selfMs   float64
	stepsMs  []float64 // every traced step, for percentiles
}

func (r *recorder) breakdown() stepBreakdown {
	var b stepBreakdown
	spans := r.ranks[0]
	for _, s := range spans {
		if s.parent < 0 {
			if s.name == "core.step" {
				b.steps++
				b.stepMs += s.ms()
				b.stepsMs = append(b.stepsMs, s.ms())
			}
			continue
		}
		for i, name := range stepChildren {
			if s.name == name {
				b.children[i] += s.ms()
			}
		}
	}
	if b.steps == 0 {
		return b
	}
	n := float64(b.steps)
	b.stepMs /= n
	b.selfMs = b.stepMs
	for i := range b.children {
		b.children[i] /= n
		b.selfMs -= b.children[i]
	}
	return b
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"); open the
// file in chrome://tracing or ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write dumps every span as Chrome trace-event JSON: one thread row per
// rank, and one for the layer measurements.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var origin time.Time
	tracks := append([][]span{r.layers}, r.ranks...)
	for _, spans := range tracks {
		if len(spans) > 0 && (origin.IsZero() || spans[0].start.Before(origin)) {
			origin = spans[0].start
		}
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for t, spans := range tracks {
		for _, s := range spans {
			ev := traceEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: t, // tid 0 is the layer track, tid r+1 is rank r
				Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
				Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			}
			args := map[string]any{}
			if s.step >= 0 {
				args["step"] = s.step
			}
			if s.parent >= 0 {
				args["parent"] = spans[s.parent].name
			}
			if s.work != 0 {
				args["work"] = s.work
			}
			if t > 0 {
				args["rank"] = t - 1
			}
			ev.Args = args
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			if err := enc.Encode(ev); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

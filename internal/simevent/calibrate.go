package simevent

import (
	"fmt"
	"math"
	"time"

	"repro/internal/allreduce"
)

// Calibration is the outcome of fitting the simulator against live runs.
type Calibration struct {
	// HostOverhead is the fitted per-operation host cost (see
	// Config.HostOverhead): the least-squares solution over the calibration
	// cases, clamped non-negative.
	HostOverhead time.Duration `json:"host_overhead_ns"`
	// MAPE is the mean absolute percentage error of predicted vs measured
	// step time across the cases, with the fitted overhead applied.
	MAPE float64 `json:"mape"`
	// BytesExact reports whether every case's simulated per-link-class byte
	// totals equal the live world's Traffic counters exactly.
	BytesExact bool `json:"bytes_exact"`
	// Cases holds the per-case detail.
	Cases []CalibrationCase `json:"cases"`
}

// CalibrationCase is one collective's predicted-vs-measured comparison.
type CalibrationCase struct {
	Collective  string  `json:"collective"`
	Codec       string  `json:"codec"`
	MeasuredMS  float64 `json:"measured_ms"`
	PredictedMS float64 `json:"predicted_ms"`
	// AbsPctErr is |predicted-measured|/measured.
	AbsPctErr float64 `json:"abs_pct_err"`
	// Byte agreement detail: live and simulated per-link-class totals.
	LiveIntraBytes int64 `json:"live_intra_bytes"`
	LiveInterBytes int64 `json:"live_inter_bytes"`
	SimIntraBytes  int64 `json:"sim_intra_bytes"`
	SimInterBytes  int64 `json:"sim_inter_bytes"`
	BytesMatch     bool  `json:"bytes_match"`
}

// Calibrate measures every case live (median of reps fresh-world runs),
// verifies exact byte agreement between simulation and measurement, fits
// the per-operation host overhead, and reports the resulting MAPE.
//
// The fit exploits that predicted makespan is (piecewise) linear in
// HostOverhead: the engine runs each case at overhead 0 and at a fixed
// probe value, the two points give the case's sensitivity (the number of
// host-cost charges on its critical path), and the least-squares overhead
//
//	H = Σᵢ sᵢ·(measuredᵢ − predictedᵢ(0)) / Σᵢ sᵢ²
//
// minimizes the summed squared timing residuals across cases. One scalar
// fitted from N measurements — the calibration cannot overfit per-case,
// so a passing MAPE means the link model itself explains the measurements.
func Calibrate(cases []LiveCase, reps int) (*Calibration, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("simevent: no calibration cases")
	}
	const probe = 50 * time.Microsecond
	cal := &Calibration{BytesExact: true}
	pred0 := make([]float64, len(cases)) // zero-overhead prediction, seconds
	slope := make([]float64, len(cases)) // d(makespan)/d(overhead), unitless
	meas := make([]float64, len(cases))  // measured, seconds

	scheds := make([][]allreduce.RankSchedule, len(cases))
	for i, lc := range cases {
		var err error
		if scheds[i], err = BuildSchedule(lc.Spec); err != nil {
			return nil, err
		}
		cfg := Config{Topo: lc.Topo, Intra: lc.Intra, Inter: lc.Inter}
		r0, err := Run(scheds[i], cfg)
		if err != nil {
			return nil, err
		}
		cfg.HostOverhead = probe
		r1, err := Run(scheds[i], cfg)
		if err != nil {
			return nil, err
		}
		pred0[i] = r0.Makespan.Seconds()
		slope[i] = float64(r1.Makespan-r0.Makespan) / float64(probe)

		live, err := MeasureLive(lc, reps)
		if err != nil {
			return nil, err
		}
		meas[i] = live.Wall.Seconds()

		cc := CalibrationCase{
			Collective:     string(lc.Collective),
			Codec:          "none",
			MeasuredMS:     1e3 * meas[i],
			LiveIntraBytes: live.Traffic.IntraBytes,
			LiveInterBytes: live.Traffic.InterBytes,
			SimIntraBytes:  r0.Traffic.IntraBytes,
			SimInterBytes:  r0.Traffic.InterBytes,
			BytesMatch:     live.Traffic == r0.Traffic,
		}
		if lc.Codec != nil {
			cc.Codec = lc.Codec.Name()
		}
		if !cc.BytesMatch {
			cal.BytesExact = false
		}
		cal.Cases = append(cal.Cases, cc)
	}

	// slope is dimensionless (seconds of makespan per second of overhead),
	// so the least-squares solution lands directly in seconds.
	var num, den float64
	for i := range cases {
		num += slope[i] * (meas[i] - pred0[i])
		den += slope[i] * slope[i]
	}
	overhead := 0.0
	if den > 0 {
		overhead = num / den
	}
	if overhead < 0 {
		overhead = 0
	}
	cal.HostOverhead = time.Duration(overhead * float64(time.Second))

	var sum float64
	for i, lc := range cases {
		r, err := Run(scheds[i], Config{Topo: lc.Topo, Intra: lc.Intra, Inter: lc.Inter, HostOverhead: cal.HostOverhead})
		if err != nil {
			return nil, err
		}
		p := r.Makespan.Seconds()
		e := math.Abs(p-meas[i]) / meas[i]
		cal.Cases[i].PredictedMS = 1e3 * p
		cal.Cases[i].AbsPctErr = e
		sum += e
	}
	cal.MAPE = sum / float64(len(cases))
	return cal, nil
}

package core

import (
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// TestPhaseTimesAccumulate pins the phase accounting through every way the
// step can run: no phase ever decreases, the phases never claim more than
// the wall time of the Step calls (they are disjoint intervals), and in
// stage-major order all four post-data phases are really timed.
func TestPhaseTimesAccumulate(t *testing.T) {
	const size = 8
	dataX, dataLabels := SyntheticTensorData(16, 2, size, 21)
	for _, tc := range []struct {
		name       string
		ranks      int
		stageMajor bool
		mod        func(*Config)
	}{
		{"raw-multicolor", 2, true, func(c *Config) { c.Allreduce = allreduce.AlgMultiColor }},
		{"bucketed-bf16", 2, true, func(c *Config) {
			c.Compression = compress.Config{Codec: "bf16", BucketFloats: 128}
		}},
		{"int8-ef-overlap", 2, false, func(c *Config) {
			c.Compression = compress.Config{Codec: "int8", ErrorFeedback: true, BucketFloats: 128}
			c.Overlap = true
		}},
		{"sharded", 2, true, func(c *Config) { c.ShardOptimizer = true }},
		{"sharded-overlap-2x2", 4, false, func(c *Config) {
			c.ShardOptimizer = true
			c.Overlap = true
			c.Topology = mpi.UniformTopology(4, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{BatchPerDevice: 2, Schedule: sgd.Const(0.01), SGD: sgd.DefaultConfig()}
			tc.mod(&cfg)
			w := mpi.NewWorld(tc.ranks)
			defer w.Close()
			err := w.Run(func(c *mpi.Comm) error {
				l, err := NewLearner(c, []nn.Layer{bnFreeCNN(2, size, 3)},
					&SliceSource{X: dataX, Labels: dataLabels, Rank: c.Rank(), Ranks: tc.ranks},
					3, size, size, cfg)
				if err != nil {
					return err
				}
				defer l.Close()
				if l.Phases().Total() != 0 {
					t.Error("phases should start at zero")
				}
				var wall float64
				for i := 0; i < 3; i++ {
					before := l.Phases()
					start := time.Now()
					if _, err := l.Step(); err != nil {
						return err
					}
					wall += time.Since(start).Seconds()
					ph := l.Phases()
					if ph.Data < before.Data || ph.Compute < before.Compute || ph.IntraNode < before.IntraNode ||
						ph.AllReduce < before.AllReduce || ph.Update < before.Update {
						t.Errorf("step %d: a phase decreased: %+v -> %+v", i, before, ph)
					}
					if ph.Total() > wall {
						t.Errorf("step %d: phases total %v exceeds wall time %v", i, ph.Total(), wall)
					}
				}
				ph := l.Phases()
				if ph.Compute <= 0 || ph.AllReduce <= 0 {
					t.Errorf("missing phase time: %+v", ph)
				}
				if tc.stageMajor && (ph.IntraNode <= 0 || ph.Update <= 0) {
					t.Errorf("stage-major order left a phase untimed: %+v", ph)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// allreduce runs the gradient-summation algorithms of Section 4.2 on real
// bytes over an in-process cluster, verifying every algorithm computes the
// same sums, and prints the multi-colour trees of Figure 2. The simulated
// Figure 5 throughput sweep is `benchtool exp fig5`.
//
// Run: go run ./examples/allreduce
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/allreduce"
	"repro/internal/mpi"
)

func main() {
	const nodes = 8
	const elems = 1 << 20 // 4 MB payload

	fmt.Printf("functional plane: %d ranks reducing %d floats\n", nodes, elems)
	var reference []float32
	for _, alg := range allreduce.Algorithms() {
		world := mpi.NewWorld(nodes)
		var result []float32
		start := time.Now()
		err := world.Run(func(c *mpi.Comm) error {
			data := make([]float32, elems)
			for i := range data {
				data[i] = float32((i%97)*(c.Rank()+1)) / 8
			}
			if err := allreduce.AllReduce(c, data, alg, allreduce.Options{}); err != nil {
				return err
			}
			if c.Rank() == 0 {
				result = data
			}
			return nil
		})
		world.Close()
		if err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		match := "reference"
		if reference == nil {
			reference = result
		} else {
			for i := range result {
				if result[i] != reference[i] {
					log.Fatalf("%s disagrees with reference at %d", alg, i)
				}
			}
			match = "matches reference"
		}
		fmt.Printf("  %-14s %8v  (%s)\n", alg, time.Since(start).Round(time.Millisecond), match)
	}

	// The paper's Figure 2: the four 4-ary trees on 8 nodes.
	fmt.Println("\nFigure 2: 4-color 4-ary trees on 8 nodes (interior nodes disjoint):")
	k := allreduce.EffectiveColors(8, 4)
	for color := 0; color < k; color++ {
		tr := allreduce.BuildTree(8, k, color, 8/k)
		fmt.Printf("  color %d: root %d, children of root %v\n", color, tr.Root, tr.Children[tr.Root])
	}
}

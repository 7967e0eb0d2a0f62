// Command chain demonstrates intra-flow spatial reuse (Sec. II-D of
// the paper): a flow's hops three or more apart can transmit
// concurrently, so the end-to-end throughput of a lone chain flow
// flattens at B/3 once it exceeds three hops — the virtual length.
// The example computes basic shares for chains of growing length and
// validates the claim with the packet simulator.
package main

import (
	"fmt"
	"os"

	"e2efair"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func chainNet(hops int) (*e2efair.Network, error) {
	return e2efair.NewNetwork(e2efair.ChainSpec(hops))
}

func run() error {
	fmt.Println("== Basic share of a lone chain flow vs. its length ==")
	fmt.Println("hops  virtual-length  basic-share(2PA)  naive-single-hop(Eq.2)")
	for _, hops := range []int{1, 2, 3, 4, 6, 9, 12} {
		net, err := chainNet(hops)
		if err != nil {
			return err
		}
		basic, err := net.Allocate(e2efair.StrategyBasic)
		if err != nil {
			return err
		}
		naive, err := net.Allocate(e2efair.StrategySingleHop)
		if err != nil {
			return err
		}
		v := hops
		if v > 3 {
			v = 3
		}
		fmt.Printf("%4d  %14d  %16.4f  %22.4f\n", hops, v, basic.PerFlow["F1"], naive.PerFlow["F1"])
	}
	fmt.Println()
	fmt.Println("The naive allocation (divide B by hop count) collapses as the")
	fmt.Println("path grows; the virtual length caps the penalty at 3 because")
	fmt.Println("hops 1 and 4 (and 2/5, 3/6, …) transmit concurrently.")

	fmt.Println("\n== Simulation: 6-hop chain, pipelining across hops ==")
	net, err := chainNet(6)
	if err != nil {
		return err
	}
	rep := net.Contention()
	fmt.Printf("colour classes (concurrent hop sets): ")
	classes := map[int][]string{}
	for sf, c := range rep.Colors {
		classes[c] = append(classes[c], sf)
	}
	fmt.Printf("%d colours\n", len(classes))
	res, err := net.Simulate(e2efair.SimConfig{Protocol: e2efair.Protocol2PAC, DurationSec: 120, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("2PA end-to-end delivered: %d packets in %.0f s (%.1f pkt/s)\n",
		res.TotalDelivered, res.DurationSec, float64(res.TotalDelivered)/res.DurationSec)
	res11, err := net.Simulate(e2efair.SimConfig{Protocol: e2efair.Protocol80211, DurationSec: 120, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("802.11 end-to-end delivered: %d packets (%.1f pkt/s), lost in flight: %d\n",
		res11.TotalDelivered, float64(res11.TotalDelivered)/res11.DurationSec, res11.Lost)
	return nil
}

// Command fairsim runs the packet-level wireless simulator over a
// network spec or builtin scenario for one or all protocol stacks.
//
// Usage:
//
//	fairsim -scenario figure1 -duration 100
//	fairsim -spec network.json -protocol 2pa-c -seed 7 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"e2efair"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fairsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fairsim", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to a JSON network spec")
	scenarioName := fs.String("scenario", "", fmt.Sprintf("builtin scenario %v", e2efair.BuiltinNames()))
	protoName := fs.String("protocol", "", "protocol stack: 802.11, two-tier, 2pa-c, 2pa-d (default: all)")
	duration := fs.Float64("duration", 100, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	rate := fs.Float64("rate", 0, "CBR packets per second per flow (default 200)")
	alpha := fs.Float64("alpha", 0, "tag-scheduler fairness strictness (default 0.0001)")
	queueCap := fs.Int("queue", 0, "queue capacity in packets (default 50)")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	tracePath := fs.String("trace", "", "write an ns-2-style MAC event trace to this file")
	reliable := fs.Bool("reliable", false, "run under the end-to-end reliable transport (goodput mode)")
	window := fs.Int("window", 0, "reliable-transport window in packets (default 16)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath != "" && *protoName == "" {
		// Tracing across all protocols would interleave runs.
		return fmt.Errorf("-trace requires -protocol")
	}

	spec, err := e2efair.LoadSpec(*specPath, *scenarioName)
	if err != nil {
		return err
	}
	net, err := e2efair.NewNetwork(spec)
	if err != nil {
		return err
	}
	protocols := e2efair.Protocols()
	if *protoName != "" {
		protocols = []e2efair.Protocol{e2efair.Protocol(*protoName)}
	}

	if *reliable {
		return runReliable(net, protocols, *duration, *seed, *window, *asJSON, out)
	}
	var traceFile *os.File
	if *tracePath != "" {
		var err error
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
	}
	var results []*e2efair.SimResult
	for _, p := range protocols {
		cfg := e2efair.SimConfig{
			Protocol:    p,
			DurationSec: *duration,
			Seed:        *seed,
			PacketsPerS: *rate,
			Alpha:       *alpha,
			QueueCap:    *queueCap,
		}
		if traceFile != nil {
			cfg.TraceWriter = traceFile
		}
		res, err := net.Simulate(cfg)
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	flows := net.Flows()
	fmt.Fprintf(out, "%-9s", "protocol")
	for _, id := range flows {
		fmt.Fprintf(out, "%9s", id)
	}
	fmt.Fprintf(out, "%10s%8s%8s%10s\n", "totalE2E", "lost", "ratio", "srcDrops")
	for _, res := range results {
		fmt.Fprintf(out, "%-9s", res.Protocol)
		for _, id := range flows {
			fmt.Fprintf(out, "%9d", res.PerFlowDelivered[id])
		}
		fmt.Fprintf(out, "%10d%8d%8.4f%10d\n", res.TotalDelivered, res.Lost, res.LossRatio, res.SourceDrops)
	}
	return nil
}

// runReliable executes the goodput-mode comparison.
func runReliable(net *e2efair.Network, protocols []e2efair.Protocol, duration float64, seed int64, window int, asJSON bool, out io.Writer) error {
	var results []*e2efair.ReliableResult
	for _, p := range protocols {
		res, err := net.SimulateReliable(e2efair.ReliableConfig{
			Sim:    e2efair.SimConfig{Protocol: p, DurationSec: duration, Seed: seed},
			Window: window,
		})
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	fmt.Fprintf(out, "%-9s%10s%10s%12s\n", "protocol", "goodput", "retx", "overhead")
	for _, res := range results {
		fmt.Fprintf(out, "%-9s%10d%10d%12.4f\n", res.Protocol, res.TotalGoodput, res.Retransmissions, res.RetransmissionOverhead)
	}
	return nil
}

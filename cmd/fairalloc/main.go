// Command fairalloc computes end-to-end fair bandwidth allocations
// for a wireless ad hoc network described by a JSON spec or one of the
// builtin paper scenarios.
//
// Usage:
//
//	fairalloc -scenario figure6
//	fairalloc -spec network.json -strategy 2pa-c
//	fairalloc -scenario figure1 -contention -json
//
// With -daemon it becomes a load generator instead: the spec's flows
// are used as churn templates against a running fairallocd.
//
//	fairalloc -scenario figure6 -daemon http://127.0.0.1:8080 -events 1000 -concurrency 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"e2efair"
	"e2efair/internal/analysis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fairalloc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fairalloc", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to a JSON network spec")
	scenarioName := fs.String("scenario", "", fmt.Sprintf("builtin scenario %v", e2efair.BuiltinNames()))
	strategyName := fs.String("strategy", "", "single strategy to run (default: all)")
	showContention := fs.Bool("contention", false, "print the contention structure")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	report := fs.Bool("report", false, "print the full analysis report (bounds, bottlenecks)")
	dot := fs.Bool("dot", false, "emit the contention graph in Graphviz DOT format")
	daemonURL := fs.String("daemon", "", "load-generator mode: drive a running fairallocd at this base URL with churn from the spec's flows")
	loadEvents := fs.Int("events", 200, "load generator: register+remove units to issue")
	loadConc := fs.Int("concurrency", 4, "load generator: concurrent HTTP workers")
	loadRetries := fs.Int("retries", 3, "load generator: retries per request on 429/503 (0 = fail fast)")
	loadSeed := fs.Int64("seed", 1, "load generator: seed for the backoff jitter streams")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := e2efair.LoadSpec(*specPath, *scenarioName)
	if err != nil {
		return err
	}
	net, err := e2efair.NewNetwork(spec)
	if err != nil {
		return err
	}
	if *daemonURL != "" {
		return runLoadGen(net, *daemonURL, *loadEvents, *loadConc, *loadRetries, *loadSeed, out, *asJSON)
	}
	if *dot {
		fmt.Fprint(out, analysis.DOT(net.Instance()))
		return nil
	}
	if *report {
		rep, err := analysis.Analyze(net.Instance())
		if err != nil {
			return err
		}
		fmt.Fprint(out, rep.Render())
		return nil
	}

	strategies := e2efair.Strategies()
	if *strategyName != "" {
		s, err := e2efair.ParseStrategy(*strategyName)
		if err != nil {
			return err
		}
		strategies = []e2efair.Strategy{s}
	}

	type output struct {
		Contention  *e2efair.ContentionReport      `json:"contention,omitempty"`
		Allocations map[string]*e2efair.Allocation `json:"allocations"`
	}
	payload := output{Allocations: make(map[string]*e2efair.Allocation)}
	if *showContention {
		payload.Contention = net.Contention()
	}
	for _, s := range strategies {
		alloc, err := net.Allocate(s)
		if err != nil {
			return err
		}
		payload.Allocations[s.String()] = alloc
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}
	if payload.Contention != nil {
		fmt.Fprintf(out, "subflows: %v\n", payload.Contention.Subflows)
		fmt.Fprintf(out, "cliques:  %v\n", payload.Contention.Cliques)
		fmt.Fprintf(out, "groups:   %v\n", payload.Contention.FlowGroups)
		fmt.Fprintf(out, "ω_Ω:      %g\n\n", payload.Contention.WeightedCliqueNumber)
	}
	flows := net.Flows()
	fmt.Fprintf(out, "%-10s %8s", "strategy", "total")
	for _, id := range flows {
		fmt.Fprintf(out, " %8s", id)
	}
	fmt.Fprintln(out)
	for _, s := range strategies {
		alloc := payload.Allocations[s.String()]
		fmt.Fprintf(out, "%-10s %8.4f", s, alloc.Total)
		for _, id := range flows {
			fmt.Fprintf(out, " %8.4f", alloc.PerFlow[id])
		}
		fmt.Fprintln(out)
	}
	return nil
}

package e2efair

import (
	"encoding/json"
	"fmt"
	"os"

	"e2efair/internal/scenario"
)

// BuiltinSpec returns one of the named example networks from the
// paper's evaluation or the classic wireless benchmarks:
//
//	figure1       — Fig. 1: two 2-hop flows with a shared bottleneck
//	figure6       — Fig. 6 / Table I: five flows over fourteen nodes
//	pentagon      — Fig. 5: five links contending in a 5-cycle
//	chain:N       — one N-hop chain flow (Fig. 3 uses N = 6)
//	grid:RxC      — R×C grid with two horizontal and two vertical flows
//	parkinglot:N  — N-hop chain crossed by short flows at its relays
func BuiltinSpec(name string) (NetworkSpec, error) {
	spec, err := scenario.BuiltinSpec(name)
	if err != nil {
		return NetworkSpec{}, fmt.Errorf("e2efair: %w", err)
	}
	return spec, nil
}

// BuiltinNames lists the builtin spec names.
func BuiltinNames() []string { return scenario.BuiltinNames() }

// LoadSpec reads the network of a command line's -spec and -scenario
// flags: the JSON spec file at path, or the builtin network called
// builtin. Exactly one of the two must be set.
func LoadSpec(path, builtin string) (NetworkSpec, error) {
	switch {
	case path != "" && builtin != "":
		return NetworkSpec{}, fmt.Errorf("pass either -spec or -scenario, not both")
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return NetworkSpec{}, err
		}
		var spec NetworkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return NetworkSpec{}, fmt.Errorf("parse %s: %w", path, err)
		}
		return spec, nil
	case builtin != "":
		return BuiltinSpec(builtin)
	default:
		return NetworkSpec{}, fmt.Errorf("pass -spec FILE or -scenario NAME (builtins: %v)", BuiltinNames())
	}
}

// GridSpec is the classic R×C grid (200 m spacing) with two horizontal
// and two vertical cross flows (fewer when the grid is too small).
func GridSpec(rows, cols int) NetworkSpec { return scenario.GridSpec(rows, cols) }

// ParkingLotSpec is an N-hop chain flow crossed by single-hop flows at
// roughly every other relay.
func ParkingLotSpec(hops int) NetworkSpec { return scenario.ParkingLotSpec(hops) }

// Figure1Spec is the paper's Fig. 1 network: F1 = A→B→C and
// F2 = D→E→F, with F1's downstream hop contending with both hops of
// F2.
func Figure1Spec() NetworkSpec { return scenario.Figure1Spec() }

// Figure6Spec is the paper's Fig. 6 / Table I network: five flows over
// fourteen nodes with maximal cliques Ω1…Ω6.
func Figure6Spec() NetworkSpec { return scenario.Figure6Spec() }

// ChainSpec is a single flow along an N-hop straight line with 200 m
// node spacing.
func ChainSpec(hops int) NetworkSpec { return scenario.ChainSpec(hops) }

// PentagonSpec embeds the paper's Fig. 5 pentagon geometrically: five
// 200 m links on a 300 m circle, so consecutive links contend
// (nearest endpoints ≈ 171 m) and non-consecutive ones do not
// (≥ 476 m).
func PentagonSpec() NetworkSpec { return scenario.PentagonSpec() }

package main

import (
	"flag"
	"fmt"
)

// flagGroup is one titled block of a subcommand's -h output.
type flagGroup struct {
	title string
	names []string
}

// groupedUsage builds a flag.FlagSet Usage function that prints the
// flags in labelled groups (instead of one alphabetical blob) and then
// names the scenario sections a -scenario JSON file may carry, so the
// strictly-decoded file format is discoverable from -h alone.
func groupedUsage(fs *flag.FlagSet, synopsis string, groups []flagGroup) func() {
	return func() {
		o := fs.Output()
		fmt.Fprintf(o, "usage: camsim %s\n", synopsis)
		for _, g := range groups {
			fmt.Fprintf(o, "\n%s:\n", g.title)
			for _, name := range g.names {
				f := fs.Lookup(name)
				if f == nil {
					continue
				}
				fmt.Fprintf(o, "  -%s (default %v)\n        %s\n", f.Name, f.DefValue, f.Usage)
			}
		}
		fmt.Fprintln(o, "\nscenario sections (-scenario file.json, strictly decoded; see package")
		fmt.Fprintln(o, "camsim/internal/fleet docs for every field):")
		fmt.Fprintln(o, "  required   duration, classes (each with fps, frame_bytes or placements)")
		fmt.Fprintln(o, "  topology   uplink — or gateways, or tiers (per-tier downlink, compute)")
		fmt.Fprintln(o, "  optional   global, federated (model), telemetry, dynamics (events),")
		fmt.Fprintln(o, "             per-class policy")
	}
}

// topoUsage groups the topo flags: which demo runs, then the knobs every
// demo shares, then scenario-file I/O and profiling.
func topoUsage(fs *flag.FlagSet) func() {
	return groupedUsage(fs, "topo [flags]", []flagGroup{
		{"demo selection (default: adaptive-placement policy comparison)",
			[]string{"compute", "depth", "dynamics", "fl", "global"}},
		{"simulation", []string{"seed", "duration", "workers"}},
		{"scenario files", []string{"scenario", "timeseries"}},
		{"profiling", []string{"cpuprofile", "memprofile"}},
	})
}

// fleetUsage groups the fleet flags: the sweep's shape, the shared
// simulation knobs, then scenario-file I/O and profiling.
func fleetUsage(fs *flag.FlagSet) func() {
	return groupedUsage(fs, "fleet [flags]", []flagGroup{
		{"sweep shape", []string{"n", "gbps", "contention"}},
		{"simulation", []string{"seed", "duration", "workers"}},
		{"scenario files", []string{"scenario", "timeseries"}},
		{"profiling", []string{"cpuprofile", "memprofile"}},
	})
}

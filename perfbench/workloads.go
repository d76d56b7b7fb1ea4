package main

import (
	"github.com/nocdr/nocdr/internal/bench/runner"
)

// paperBenchmarks are the six SoC benchmarks of the paper's evaluation.
var paperBenchmarks = []string{"D26_media", "D36_4", "D36_6", "D36_8", "D35_bot", "D38_tvo"}

// allWorkloads are the benchmark's workloads, by the names later changes
// refer to. README.md records why each was chosen and which layers it
// loads and bypasses.
var allWorkloads = []workload{
	{
		// Small certified cells: synthesis (with its load-aware routing)
		// and the independent checker do most of the work, the cycle
		// search little.
		name: "synth_grid",
		sweep: &sweepSpec{
			benchmarks:  append(append([]string(nil), paperBenchmarks...), "rand:96x4", "rand:128x4"),
			switches:    []int{6, 8, 10, 12, 14, 16, 18, 20},
			seedsPerRun: 8,
			certify:     true,
		},
	},
	{
		// Few large seeded designs: Algorithm 1's break loop on a giant
		// strongly connected component dominates.
		name: "scale_removal",
		sweep: &sweepSpec{
			benchmarks:  []string{"rand:192x6", "rand:256x6"},
			switches:    []int{64, 96},
			fixedSeeds:  []int64{1000001, 1000002},
			seedsPerRun: 2,
		},
	},
	{
		// Regular 8x8 presets under deterministic and turn-model routing,
		// simulated flit by flit with a load sweep: the wormhole engine
		// dominates.
		name: "sim_grid",
		sweep: &sweepSpec{
			benchmarks:  []string{"torus:8x8:uniform", "mesh:8x8:bitrev", "mesh:8x8:transpose"},
			routings:    []string{"dor", "odd-even", "min-adaptive"},
			seedsPerRun: 1,
			simulate:    true,
			sim:         runner.SimParams{Cycles: 20000, Load: 0.6, BufferDepth: 2},
			loads:       []float64{0.3, 0.9},
		},
	},
	{
		// Two closed-loop clients against the job server: cold removals,
		// cache hits and reconfiguration deltas.
		name: "served_mix",
		served: &servedSpec{
			paper: []string{
				"D36_8@11", "D36_8@12", "D36_8@13", "D36_8@14", "D36_8@15", "D36_8@16",
				"D36_8@17", "D36_8@18", "D36_8@19", "D36_8@20", "D35_bot@18",
				"D36_6@10", "D36_6@11", "D36_6@12", "D36_6@13", "D36_6@14", "D36_6@15",
				"D36_6@16", "D36_6@17", "D36_6@18", "D36_6@19", "D36_6@20",
			},
			randPerClient: 6,
			randSpec:      "rand:64x4",
			switches:      []int{8, 10, 12},
			meshSide:      8,
		},
	},
}

func workloads(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

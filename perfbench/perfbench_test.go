package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strconv"
	"testing"

	"github.com/nocdr/nocdr/internal/bench/runner"
)

var update = flag.Bool("update", false, "rewrite known_answers.json from the current program")

// TestKnownAnswers runs one pass of every workload on the default and
// held-out seeds and checks it against known_answers.json; with -update
// it rewrites the file from the current program instead.
func TestKnownAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	ctx := context.Background()
	if *update {
		known = &knownAnswers{}
	}
	got := &knownAnswers{
		Anchors: map[string]map[string]cellAnswer{},
		Seeds:   map[string]map[string]map[string]float64{},
	}
	for _, w := range allWorkloads {
		got.Anchors[w.name] = map[string]cellAnswer{}
		got.Seeds[w.name] = map[string]map[string]float64{}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			c := &checks{}
			var anchors map[string]cellAnswer
			var totals map[string]float64
			if w.sweep != nil {
				f, err := w.sweep.checkedPass(ctx, c, w.name, seed, w.sweep.grid(seed), nil)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				anchors, totals = f.anchors, w.sweep.seedTotals(f)
			} else {
				in, err := w.served.setup(ctx, nil, seed)
				if err != nil {
					t.Fatalf("%s seed %d: setup: %v", w.name, seed, err)
				}
				f, err := w.served.round(ctx, c, w.name, nil, in)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				checkRound(c, w.name, seed, f, nil)
				anchors, totals = f.anchors, f.totals()
			}
			if !*update && c.failed > 0 {
				t.Errorf("%s seed %d: %d of %d checks failed: %v", w.name, seed, c.failed, c.attempted, c.msgs)
			}
			for k, v := range anchors {
				got.Anchors[w.name][k] = v
			}
			got.Seeds[w.name][strconv.FormatInt(seed, 10)] = totals
		}
	}
	if !*update {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("known_answers.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tinyWorkloads are small variants of the four workloads, shaped like
// them, for the self-test.
var tinyWorkloads = []workload{
	{name: "tiny_synth", sweep: &sweepSpec{
		benchmarks: []string{"D36_8", "rand:48x4"}, switches: []int{8, 14},
		seedsPerRun: 2, certify: true,
	}},
	{name: "tiny_removal", sweep: &sweepSpec{
		benchmarks: []string{"rand:96x6"}, switches: []int{32}, seedsPerRun: 1,
	}},
	{name: "tiny_sim", sweep: &sweepSpec{
		benchmarks: []string{"torus:4x4:uniform", "mesh:4x4:transpose"}, routings: []string{"dor", "odd-even"},
		seedsPerRun: 2, simulate: true,
		sim:   runner.SimParams{Cycles: 2000, Load: 0.6, BufferDepth: 2},
		loads: []float64{0.3},
	}},
	{name: "tiny_served", served: &servedSpec{
		paper: []string{"D36_8@14"}, randPerClient: 2, randSpec: "rand:32x3", switches: []int{8}, meshSide: 4,
	}},
}

// deterministic are the metrics that must repeat exactly between runs of
// the same seed.
var deterministic = []string{
	"added_vcs", "sim_latency_cycles", "sim_throughput_fpc",
	"fabric.hits", "fabric.misses", "fabric.hit_ratio",
	"core.breaks", "synth.calls", "certify.bundle_bytes", "wormhole.sim_cycles",
	"reconfig.rerouted_flows", "serve.rejected",
}

// TestSelfTest runs a tiny variant of each workload twice, untraced and
// traced, and checks that every output check passes and that the
// deterministic metrics repeat exactly.
func TestSelfTest(t *testing.T) {
	ctx := context.Background()
	for _, w := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			var first result
			for run := 0; run < 2; run++ {
				res, err := measure(ctx, w, runConfig{seed: 3}, trace)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w.name, trace, err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%s trace=%v: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
				}
				if run == 0 {
					first = res
					continue
				}
				for _, name := range deterministic {
					a, ok := first.Metrics[name]
					if !ok {
						continue
					}
					if b := res.Metrics[name]; a.Value != b.Value {
						t.Errorf("%s trace=%v: %s = %v then %v", w.name, trace, name, a.Value, b.Value)
					}
				}
			}
		}
	}
}

// TestMetricNames pins the printed metric names to BENCHMARK.json: an
// untraced run prints every end-to-end metric and a traced run every
// per-layer metric, on every workload.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	printed := func(m map[string]metric) []string {
		var out []string
		for k, v := range m {
			out = append(out, k+" "+v.Unit)
		}
		sort.Strings(out)
		return out
	}
	ctx := context.Background()
	for _, w := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			res, err := measure(ctx, w, runConfig{seed: 3}, trace)
			if err != nil {
				t.Fatal(err)
			}
			want := names(spec.EndToEnd)
			if trace {
				want = names(spec.PerLayer)
			}
			if got := printed(res.Metrics); !equalStrings(got, want) {
				t.Errorf("%s trace=%v prints\n  %v\nBENCHMARK.json lists\n  %v", w.name, trace, got, want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

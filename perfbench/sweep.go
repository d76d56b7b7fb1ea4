package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
)

// sweepSpec is a sweep workload: a grid run through runner.RunContext.
type sweepSpec struct {
	benchmarks []string
	switches   []int
	routings   []string
	// seedsPerRun is how many grid seeds one run derives from its seed,
	// so runs with different seeds see disjoint seeded designs.
	seedsPerRun int
	// fixedSeeds are grid seeds every run includes besides the derived
	// ones. Their seeded designs do not change with the run's seed, have
	// known answers, and damp the seed-to-seed spread of the metrics.
	fixedSeeds []int64
	certify    bool
	simulate   bool
	// sim sets every simulation parameter explicitly, so the traced path
	// can rebuild the identical simulator configuration.
	sim   runner.SimParams
	loads []float64
}

func (s *sweepSpec) grid(seed int64) runner.Grid {
	seeds := append([]int64(nil), s.fixedSeeds...)
	for i := 0; i < s.seedsPerRun; i++ {
		seeds = append(seeds, seed*int64(s.seedsPerRun)+int64(i))
	}
	return runner.Grid{
		Benchmarks:   s.benchmarks,
		SwitchCounts: s.switches,
		Routings:     s.routings,
		Seeds:        seeds,
		Loads:        s.loads,
	}
}

func (s *sweepSpec) options() runner.Options {
	return runner.Options{
		Parallel: runtime.NumCPU(),
		Certify:  s.certify,
		Simulate: s.simulate,
		Sim:      s.sim,
	}
}

// simSeed is the simulation seed the runner derives for a cell.
func (s *sweepSpec) simSeed(job runner.Job) int64 { return s.sim.Seed + job.Seed + 1 }

// passFacts is what one pass over a sweep grid produced.
type passFacts struct {
	// wall is the pass's wall time; cpu the process CPU time it used.
	wall     time.Duration
	cpu      time.Duration
	cells    int
	designs  int
	addedVCs int
	// removals holds one removal wall time (ms) per design: the runner
	// removes once per design group.
	removals  []float64
	simCycles int64
	// simLatency and simThroughput are means over the cells' canonical
	// post-removal measurements.
	simLatency, simThroughput float64
	digest                    [sha256.Size]byte
	// outcomes are the per-cell outputs the traced run must reproduce.
	outcomes map[string]cellOutcome
	// anchors are the results of the seed-independent designs.
	anchors map[string]cellAnswer
}

// cellOutcome is the part of a cell's result that both the runner and
// the traced path compute: VCs, breaks, certificate verdicts and
// simulation statistics.
type cellOutcome struct {
	Cores          int                `json:"cores"`
	Links          int                `json:"links"`
	MaxRouteLen    int                `json:"max_route_len"`
	InitialAcyclic bool               `json:"initial_acyclic"`
	RemovalVCs     int                `json:"removal_vcs"`
	OrderingVCs    int                `json:"ordering_vcs"`
	Breaks         int                `json:"breaks"`
	Paths          int                `json:"paths"`
	Cert           *runner.CertResult `json:"cert,omitempty"`
	Sim            *runner.SimResult  `json:"sim,omitempty"`
}

func outcomeOf(r runner.Result) cellOutcome {
	return cellOutcome{
		Cores: r.Cores, Links: r.Links, MaxRouteLen: r.MaxRouteLen,
		InitialAcyclic: r.InitialAcyclic,
		RemovalVCs:     r.RemovalVCs, OrderingVCs: r.OrderingVCs, Breaks: r.Breaks, Paths: r.Paths,
		Cert: r.Certify, Sim: r.Sim,
	}
}

func cellID(j runner.Job) string {
	return fmt.Sprintf("%s@%d/%s/seed%d", j.Benchmark, j.SwitchCount, j.Routing, j.Seed)
}

func isPreset(bench string) bool {
	return strings.HasPrefix(bench, "mesh:") || strings.HasPrefix(bench, "torus:")
}

// seededDesign reports whether the cell's design (not only its injection
// process) depends on the seed: seeded random traffic.
func seededDesign(j runner.Job) bool { return strings.HasPrefix(j.Benchmark, "rand:") }

// designKey groups cells that share one design build, as the runner does.
func designKey(j runner.Job) string {
	k := fmt.Sprintf("%s@%d/%s/%s", j.Benchmark, j.SwitchCount, j.Routing, j.Policy)
	if seededDesign(j) {
		k += fmt.Sprintf("/seed%d", j.Seed)
	}
	return k
}

// anchorKey names a design whose known answer does not depend on the
// run's seed ("" for designs seeded from it). Presets ignore the
// switch-count axis.
func (s *sweepSpec) anchorKey(j runner.Job) string {
	switch {
	case seededDesign(j):
		for _, f := range s.fixedSeeds {
			if j.Seed == f {
				return fmt.Sprintf("%s@%d#%d", j.Benchmark, j.SwitchCount, j.Seed)
			}
		}
		return ""
	case isPreset(j.Benchmark):
		return j.Benchmark + "/" + j.Routing
	default:
		return fmt.Sprintf("%s@%d", j.Benchmark, j.SwitchCount)
	}
}

// simCycles is the number of simulated cycles behind one cell's
// verification stage: the negative-control witness run (counted up to
// its deadlock detection when it deadlocked), the post-removal witness
// run, the canonical measurement and one run per load-sweep point.
func simCycles(sim *runner.SimResult, horizon int64) int64 {
	n := horizon * int64(1+len(sim.LoadSweep))
	if sim.PreRan {
		n += horizon
		if sim.PreDeadlock {
			n += sim.PreDeadlockCycle
		} else {
			n += horizon
		}
	}
	return n
}

// checkedPass runs the grid once through runner.RunContext and checks
// the report.
func (s *sweepSpec) checkedPass(ctx context.Context, c *checks, name string, seed int64, grid runner.Grid, first *passFacts) (*passFacts, error) {
	t0, c0 := time.Now(), cpuTime()
	rep, err := runner.RunContext(ctx, grid, s.options())
	wall, cpu := time.Since(t0), cpuTime()-c0
	if err != nil {
		return nil, err
	}
	if rep.Canceled {
		return nil, fmt.Errorf("sweep canceled: %w", ctx.Err())
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encode report: %w", err)
	}
	f := &passFacts{
		wall: wall, cpu: cpu, digest: sha256.Sum256(data),
		outcomes: map[string]cellOutcome{}, anchors: map[string]cellAnswer{},
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		if r.Skipped {
			continue
		}
		f.cells++
		f.addedVCs += r.RemovalVCs
		f.outcomes[cellID(r.Job)] = outcomeOf(r)
		if k := s.anchorKey(r.Job); k != "" {
			ordering := r.OrderingVCs
			f.anchors[k] = cellAnswer{RemovalVCs: r.RemovalVCs, OrderingVCs: &ordering, Breaks: r.Breaks}
		}
		if k := designKey(r.Job); !seen[k] {
			seen[k] = true
			f.designs++
			f.removals = append(f.removals, ms(r.RemovalTime))
		}
		if r.Sim != nil {
			f.simCycles += simCycles(r.Sim, s.sim.Cycles)
			f.simLatency += r.Sim.PostAvgLatency
			f.simThroughput += r.Sim.PostThroughput
		}
	}
	if s.simulate && f.cells > 0 {
		f.simLatency /= float64(f.cells)
		f.simThroughput /= float64(f.cells)
	}
	s.checkPass(c, name, seed, rep, f, first)
	return f, nil
}

// checkPass applies the output checks to one pass: every cell clean,
// certified cells agreeing, no post-removal deadlock, seed-independent
// designs matching their known answers, the report byte-identical to the
// first pass, and the seed's committed totals where the seed has them.
// It records one check per cell and one per pass-level property.
func (s *sweepSpec) checkPass(c *checks, name string, seed int64, rep *runner.Report, f, first *passFacts) {
	for _, r := range rep.Results {
		if r.Skipped {
			continue
		}
		p := cellProblem(s, name, r)
		c.expect(p == "", "%s: %s", cellID(r.Job), p)
	}
	if first != nil {
		c.expect(f.digest == first.digest, "report bytes differ between passes")
	}
	known.checkSeed(c, name, seed, s.seedTotals(f))
}

// cellProblem describes why a cell fails its checks ("" when it passes).
func cellProblem(s *sweepSpec, name string, r runner.Result) string {
	switch {
	case r.Error != "":
		return "error: " + r.Error
	case r.Canceled:
		return "canceled"
	case s.certify && (r.Certify == nil || !r.Certify.Agree):
		if r.Certify == nil {
			return "no certificate"
		}
		return "certify disagrees: " + r.Certify.Mismatch
	case s.simulate && r.Sim == nil:
		return "no simulation result"
	case s.simulate && r.Sim.PostDeadlock:
		return "post-removal design deadlocked"
	}
	if r.Sim != nil {
		for _, p := range r.Sim.LoadSweep {
			if p.Deadlock {
				return fmt.Sprintf("post-removal design deadlocked at load %v", p.Load)
			}
		}
	}
	return known.cellProblem(name, s.anchorKey(r.Job), r.RemovalVCs, r.OrderingVCs, r.Breaks)
}

// seedTotals are a pass's deterministic, seed-dependent totals.
func (s *sweepSpec) seedTotals(f *passFacts) map[string]float64 {
	t := map[string]float64{"added_vcs": float64(f.addedVCs)}
	if s.simulate {
		t["sim_latency_cycles"] = f.simLatency
		t["sim_throughput_fpc"] = f.simThroughput
	}
	return t
}

// untraced measures the end-to-end metrics: set-up, then passes over the
// grid until the run's time is spent.
func (s *sweepSpec) untraced(ctx context.Context, name string, cfg runConfig) (metricSet, *checks, error) {
	grid, setupS, err := measureSetup(func() (runner.Grid, error) {
		g := s.grid(cfg.seed)
		return g, g.Validate()
	})
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	c := &checks{}
	var (
		first *passFacts
		rates []float64
	)
	start := time.Now()
	for first == nil || time.Since(start) < cfg.seconds {
		f, err := s.checkedPass(ctx, c, name, cfg.seed, grid, first)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = f
		}
		rates = append(rates, float64(f.cells)/f.cpu.Seconds())
	}
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("cells_per_cpu_s", median(rates), "1/s")
	m.set("added_vcs", float64(first.addedVCs), "count")
	return m, c, nil
}

package runner

import (
	"context"
	"fmt"
	"time"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// EvalOptions configures one grid-point evaluation.
type EvalOptions struct {
	Selection   core.CycleSelection
	Policy      core.DirectionPolicy
	VCLimit     int
	FullRebuild bool
	// Simulate runs the flit-level verification stage (see
	// SimEvalContext) on the evaluated design, filling Point.Sim.
	Simulate bool
	// Sim parameterizes the simulations when Simulate is set.
	Sim SimParams
	// Certify runs the independent-checker verification stage on the
	// pre- and post-removal designs, filling Point.Cert.
	Certify bool
	// MaxPaths caps candidate paths per flow in adaptive evaluations
	// (0 = route.MaxDefaultPaths).
	MaxPaths int
}

// removal is the Algorithm 1 configuration the options select.
func (o EvalOptions) removal() core.Options {
	return core.Options{Selection: o.Selection, Policy: o.Policy, VCLimit: o.VCLimit, FullRebuild: o.FullRebuild}
}

// Point is the outcome of evaluating one (traffic graph, switch count)
// design: the synthesized design's shape, the removal algorithm's cost,
// and the resource-ordering baseline's cost on identical inputs. It is
// the unit both the sweep engine and the figure reproductions build on.
type Point struct {
	Links          int
	MaxRouteLen    int
	InitialAcyclic bool
	RemovalVCs     int
	OrderingVCs    int
	Breaks         int
	// Paths is the route set's total candidate-path count (0 for
	// single-path evaluations).
	Paths       int
	RemovalTime time.Duration
	// Sim holds the flit-level verification outcome (nil unless
	// EvalOptions.Simulate was set).
	Sim *SimResult
	// Cert holds the independent-checker verification outcome (nil
	// unless EvalOptions.Certify was set).
	Cert *CertResult
}

// EvaluateContext synthesizes an application-specific topology for the
// graph at the given switch count, runs deadlock removal and the
// resource-ordering baseline, and reports both VC overheads — plus, with
// opts.Simulate, the flit-level verification of the pre- and
// post-removal designs. ctx is honored through synthesis, removal and
// the simulation stage.
func EvaluateContext(ctx context.Context, g *traffic.Graph, switchCount int, opts EvalOptions) (Point, error) {
	de, err := buildSynth(ctx, g, switchCount, opts)
	if err != nil {
		return Point{}, err
	}
	return de.finish(ctx, opts)
}

// buildCell builds one grid cell's design without the per-cell
// verification stages — the dispatch the grouped scheduler and the
// per-cell oracle share. Regular-topology presets get their seeded link
// faults masked and run under dimension-ordered routes (unfaulted dor)
// or the cell's turn model; synthesized benchmarks resolve their traffic
// graph and synthesize a topology, except that a switch count above the
// core count skips the cell (the sweep convention of Figures 8 and 9).
// cores is the workload's core count, known once the workload exists
// (0 when the spec does not parse).
func buildCell(ctx context.Context, job Job, opts EvalOptions) (de *designEval, cores int, skipped bool, err error) {
	spec, err := ParseSpec(job.Benchmark)
	if err != nil {
		return nil, 0, false, err
	}
	g, err := spec.Workload(job.Seed)
	if err != nil {
		return nil, 0, false, err
	}
	cores = g.NumCores()
	if !spec.Preset {
		if job.SwitchCount > cores {
			return nil, cores, true, nil
		}
		de, err = buildSynth(ctx, g, job.SwitchCount, opts)
		return de, cores, false, err
	}
	grid, err := regular.NewGrid(spec.Grid.Cols, spec.Grid.Rows, spec.Grid.Wrap)
	if err != nil {
		return nil, cores, false, err
	}
	model, err := route.ParseTurnModel(job.Routing)
	if err != nil {
		return nil, cores, false, err
	}
	if job.Faults > 0 {
		// Seeded per-cell fault scenario: mask links, keep the network
		// connected, and let the routing regenerate around them.
		ids, err := regular.SelectFaults(grid, job.Faults, job.Seed)
		if err != nil {
			return nil, cores, false, err
		}
		if err := grid.Topology.Fault(ids...); err != nil {
			return nil, cores, false, err
		}
	}
	if model == route.DOR && job.Faults == 0 {
		// The classic single-path pipeline, byte-identical to
		// pre-routing-axis sweeps.
		de, err = buildRegular(ctx, grid, g, opts)
	} else {
		de, err = buildAdaptive(ctx, grid, g, model, opts)
	}
	return de, cores, false, err
}

// buildSynth synthesizes and evaluates an application-specific design
// without the simulation stage.
func buildSynth(ctx context.Context, g *traffic.Graph, switchCount int, opts EvalOptions) (*designEval, error) {
	des, err := synth.SynthesizeContext(ctx, g, synth.Options{SwitchCount: switchCount})
	if err != nil {
		return nil, fmt.Errorf("runner: synthesize %s @ %d: %w", g.Name, switchCount, err)
	}
	return buildRouted(ctx, g, des.Topology, des.Routes, opts, fmt.Sprintf("%s @ %d", g.Name, switchCount))
}

// buildRegular evaluates a regular-topology preset under dimension-ordered
// routes without the simulation stage: the mesh or torus configuration
// whose wrap-around dependencies are the textbook dateline deadlock.
// There is no synthesis step, so the preset carries its own switch count.
func buildRegular(ctx context.Context, grid *regular.Grid, g *traffic.Graph, opts EvalOptions) (*designEval, error) {
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		return nil, fmt.Errorf("runner: DOR routes for %s: %w", grid.Topology.Name, err)
	}
	return buildRouted(ctx, g, grid.Topology, tab, opts, grid.Topology.Name)
}

// designEval is a fully built and removed design: the seed-independent
// evaluation outcome (point) plus everything the simulation stage needs
// to instantiate pre- and post-removal simulators. One designEval serves
// every seed/load variant of a cell group — the design cache the grouped
// scheduler keys on.
type designEval struct {
	point Point
	g     *traffic.Graph

	// Single-path (table-routed) designs.
	preTab, postTab *route.Table
	// Adaptive (route-set) designs; nil tables above when set.
	preSet, postSet *route.RouteSet

	preTop, postTop *topology.Topology
	initialAcyclic  bool
	adaptive        bool
}

// buildAdaptive evaluates a regular-topology preset under a turn model:
// route-set generation, union-CDG removal, the ordering baseline on the
// flattened table. No simulation.
func buildAdaptive(ctx context.Context, grid *regular.Grid, g *traffic.Graph, model route.TurnModel, opts EvalOptions) (*designEval, error) {
	top := grid.Topology
	label := fmt.Sprintf("%s/%s", top.Name, model)
	set, err := route.GridRoutes(top, g, grid.Spec(), model, opts.MaxPaths)
	if err != nil {
		return nil, fmt.Errorf("runner: %s routes for %s: %w", model, top.Name, err)
	}
	var p Point
	start := time.Now()
	rm, err := core.RemoveSetContext(ctx, top, set, opts.removal())
	if err != nil {
		return nil, fmt.Errorf("runner: remove %s: %w", label, err)
	}
	p.RemovalTime = time.Since(start)
	flat, _ := set.Flatten()
	ro, err := ordering.Apply(top, flat, ordering.HopIndex)
	if err != nil {
		return nil, fmt.Errorf("runner: ordering %s: %w", label, err)
	}
	p.Links = top.NumLinks()
	p.MaxRouteLen = set.MaxLen()
	p.InitialAcyclic = rm.InitialAcyclic
	p.RemovalVCs = rm.AddedVCs
	p.OrderingVCs = ro.AddedVCs
	p.Breaks = rm.Iterations
	p.Paths = set.TotalPaths()
	return &designEval{
		point: p, g: g,
		preSet: set, postSet: rm.Routes,
		preTop: top, postTop: rm.Topology,
		initialAcyclic: rm.InitialAcyclic,
		adaptive:       true,
	}, nil
}

// buildRouted evaluates a fully routed single-path design: removal and
// the ordering baseline. No simulation.
func buildRouted(ctx context.Context, g *traffic.Graph, top *topology.Topology, tab *route.Table, opts EvalOptions, label string) (*designEval, error) {
	var p Point
	start := time.Now()
	rm, err := core.RemoveContext(ctx, top, tab, opts.removal())
	if err != nil {
		return nil, fmt.Errorf("runner: remove %s: %w", label, err)
	}
	p.RemovalTime = time.Since(start)
	ro, err := ordering.Apply(top, tab, ordering.HopIndex)
	if err != nil {
		return nil, fmt.Errorf("runner: ordering %s: %w", label, err)
	}
	p.Links = top.NumLinks()
	p.MaxRouteLen = tab.MaxLen()
	p.InitialAcyclic = rm.InitialAcyclic
	p.RemovalVCs = rm.AddedVCs
	p.OrderingVCs = ro.AddedVCs
	p.Breaks = rm.Iterations
	return &designEval{
		point: p, g: g,
		preTab: tab, postTab: rm.Routes,
		preTop: top, postTop: rm.Topology,
		initialAcyclic: rm.InitialAcyclic,
	}, nil
}

// finish attaches the optional per-cell verification stages to the built
// design's point: the flit-level simulation and the independent-checker
// certification (which cross-checks the simulation when both ran).
func (de *designEval) finish(ctx context.Context, opts EvalOptions) (Point, error) {
	p := de.point
	if opts.Simulate {
		sim, err := de.simulate(ctx, opts.Sim)
		if err != nil {
			return p, err
		}
		p.Sim = sim
	}
	if opts.Certify {
		p.Cert = de.certify().withSim(p.Sim)
	}
	return p, nil
}

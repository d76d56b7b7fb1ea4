package runner

import (
	"context"
	"fmt"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// SimParams configures the flit-level verification stage of a sweep.
// Zero-valued fields pick defaults chosen to provoke deadlocks: saturation
// load and shallow buffers over a 20k-cycle horizon.
type SimParams struct {
	// Cycles is the simulation horizon per run. Default 20000.
	Cycles int64
	// Load is the injection load factor in (0, 1]. Default 1.0
	// (saturation — the regime where cyclic designs actually deadlock).
	Load float64
	// BufferDepth is the per-VC buffer depth in flits. Default 2.
	BufferDepth int
	// Seed drives the injection process.
	Seed int64
	// Adaptive is the per-hop output-selection policy for adaptive
	// cells (first-free or least-congested); single-path cells ignore it.
	Adaptive wormhole.AdaptiveSelection
}

func (p SimParams) withDefaults() SimParams {
	if p.Cycles == 0 {
		p.Cycles = 20000
	}
	if p.Load == 0 {
		p.Load = 1.0
	}
	if p.BufferDepth == 0 {
		p.BufferDepth = 2
	}
	return p
}

// SimResult is the flit-level verification outcome of one grid cell: the
// negative control (the pre-removal design must deadlock under the
// constructed witness workload if its CDG was cyclic), the post-removal
// verdict (must never deadlock, neither under the witness nor under plain
// load), and the post-removal service metrics. All fields are pure
// functions of the cell spec and seed, so they serialize
// deterministically.
type SimResult struct {
	// PreRan reports whether the negative control ran; it is skipped when
	// the initial CDG is already acyclic (no deadlock to provoke).
	PreRan bool `json:"pre_ran"`
	// WitnessFlows is how many flows the constructed witness workload
	// saturates (the flows inducing the CDG's smallest cycle).
	WitnessFlows int `json:"witness_flows,omitempty"`
	// PreDeadlock is the negative control: true means the unmodified
	// design deadlocked under the witness workload, demonstrating the
	// hazard the removal algorithm exists to eliminate.
	PreDeadlock      bool  `json:"pre_deadlock"`
	PreDeadlockCycle int64 `json:"pre_deadlock_cycle,omitempty"`

	// PostDeadlock must be false: the post-removal design simulated under
	// the identical witness workload and under the plain measurement
	// load.
	PostDeadlock bool `json:"post_deadlock"`

	// Post-removal service metrics at the configured load.
	PostDelivered  int64   `json:"post_delivered"`
	PostAvgLatency float64 `json:"post_avg_latency"`
	PostP50        int64   `json:"post_p50_latency"`
	PostP95        int64   `json:"post_p95_latency"`
	PostP99        int64   `json:"post_p99_latency"`
	// PostThroughput is delivered flits per cycle — the saturation
	// throughput when Load is 1.
	PostThroughput float64 `json:"post_throughput_flits_per_cycle"`

	// LoadSweep holds the post-removal design's measurement points over
	// the grid's Loads axis, ascending by load (only when Grid.Loads was
	// set — legacy reports never carry the field).
	LoadSweep []LoadPoint `json:"load_sweep,omitempty"`
}

// witnessFlits is the packet length of the witness workload's saturated
// flows: long worms span several channels, so the constructed cycle's
// holdings actually interlock.
const witnessFlits = 16

// witness constructs the adversarial counterexample for the pre-removal
// design when it is cyclic: it finds the CDG's smallest cycle (in the
// union CDG for a route set), identifies the flows whose routes induce
// its dependency edges, and returns a copy of the traffic graph in which
// exactly those flows inject saturated long-packet traffic while every
// other flow is throttled to near silence. A blind saturation run almost
// never trips an application-specific design's cycle (the involved flows
// are usually low-bandwidth); driving the inducing flows directly makes
// the latent hazard manifest within a short horizon. The second return
// value is the number of saturated flows; a nil graph means the CDG is
// acyclic.
func (de *designEval) witness() (*traffic.Graph, int, error) {
	if de.adaptive {
		c, refs, err := cdg.BuildSet(de.preTop, de.preSet)
		if err != nil {
			return nil, 0, err
		}
		return witnessFromCDG(de.g, c, refs)
	}
	c, err := cdg.Build(de.preTop, de.preTab)
	if err != nil {
		return nil, 0, err
	}
	return witnessFromCDG(de.g, c, nil)
}

// witnessFromCDG builds the witness graph given the (possibly flattened)
// CDG; refs maps pseudo-flow attributions back to real flows (nil for an
// unflattened CDG).
func witnessFromCDG(g *traffic.Graph, c *cdg.CDG, refs []route.PathRef) (*traffic.Graph, int, error) {
	cyc := c.SmallestCycle()
	if len(cyc) == 0 {
		return nil, 0, nil
	}
	hot := map[int]bool{}
	for i := range cyc {
		for _, f := range c.FlowsOn(cyc[i], cyc[(i+1)%len(cyc)]) {
			if refs != nil {
				f = refs[f].FlowID
			}
			hot[f] = true
		}
	}
	// Rebuild the graph flow by flow in ID order so flow IDs (and with
	// them the route table mapping) are preserved.
	w := traffic.NewGraph(g.Name + "_witness")
	for range g.Cores() {
		w.AddCore("")
	}
	for _, f := range g.Flows() {
		bw, flits := 0.001, f.PacketFlits
		if hot[f.ID] {
			bw, flits = 100, witnessFlits
		}
		id, err := w.AddFlow(f.Src, f.Dst, bw)
		if err != nil {
			return nil, 0, err
		}
		if err := w.SetPacketFlits(id, flits); err != nil {
			return nil, 0, err
		}
	}
	return w, len(hot), nil
}

// SimEvalContext runs the flit-level verification stage for one
// evaluated cell. For a cyclic design it constructs the witness workload
// and simulates it on both the pre-removal design (negative control:
// must deadlock to demonstrate the hazard) and the post-removal design
// (must survive the identical adversarial workload). The post-removal
// design additionally runs the plain workload at the configured load for
// latency percentiles and throughput. ctx is threaded into every
// simulation run's flit-stepping loop.
func SimEvalContext(ctx context.Context, g *traffic.Graph,
	preTop *topology.Topology, preTab *route.Table, initialAcyclic bool,
	postTop *topology.Topology, postTab *route.Table,
	params SimParams) (*SimResult, error) {
	de := &designEval{g: g, preTop: preTop, preTab: preTab, postTop: postTop, postTab: postTab, initialAcyclic: initialAcyclic}
	return de.simulate(ctx, params)
}

// SimEvalSetContext is SimEvalContext for adaptive route sets: the
// witness workload is derived from the union CDG, and both designs
// simulate under the adaptive engine with params.Adaptive output
// selection.
func SimEvalSetContext(ctx context.Context, g *traffic.Graph,
	preTop *topology.Topology, preSet *route.RouteSet, initialAcyclic bool,
	postTop *topology.Topology, postSet *route.RouteSet,
	params SimParams) (*SimResult, error) {
	de := &designEval{g: g, preTop: preTop, preSet: preSet, postTop: postTop, postSet: postSet, initialAcyclic: initialAcyclic, adaptive: true}
	return de.simulate(ctx, params)
}

// simulate is the per-cell verification stage on a built design — the
// sequential oracle the batched path is pinned against: negative control
// on the pre-removal design under the constructed witness (when the CDG
// was cyclic), the identical witness on the post-removal design, then
// the plain measurement run.
func (de *designEval) simulate(ctx context.Context, params SimParams) (*SimResult, error) {
	params = params.withDefaults()
	res := &SimResult{}
	cfg := params.config()
	cfg.Seed = params.Seed

	if !de.initialAcyclic {
		w, nflows, err := de.witness()
		if err != nil {
			return nil, fmt.Errorf("runner: witness workload: %w", err)
		}
		if w != nil {
			res.PreRan = true
			res.WitnessFlows = nflows
			// The witness's point is to saturate the cycle-inducing
			// flows; a sub-saturation -sim-load must not de-fang the
			// negative control, so the witness runs always pin load 1.
			witnessCfg := cfg
			witnessCfg.LoadFactor = 1.0
			pre, err := de.newSim(true, w, witnessCfg)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			st, err := pre.RunContext(ctx)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			res.PreDeadlock = st.Deadlocked
			res.PreDeadlockCycle = st.DeadlockCycle

			// The removed design must survive the same adversarial
			// workload that just deadlocked (or at least stressed) the
			// original.
			postW, err := de.newSim(false, w, witnessCfg)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			wst, err := postW.RunContext(ctx)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			if wst.Deadlocked {
				res.PostDeadlock = true
			}
		}
	}

	postCfg := cfg
	postCfg.CollectLatencies = true
	post, err := de.newSim(false, de.g, postCfg)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	st, err := post.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	res.measure(st)
	return res, nil
}

// config is the simulator configuration the (defaulted) parameters
// select, without a seed: the per-cell path seeds it directly, the
// batched path per lane.
func (p SimParams) config() wormhole.Config {
	return wormhole.Config{
		MaxCycles:   p.Cycles,
		LoadFactor:  p.Load,
		BufferDepth: p.BufferDepth,
		Adaptive:    p.Adaptive,
	}
}

// measure records the post-removal measurement run's verdict and
// service metrics.
func (r *SimResult) measure(st *wormhole.Stats) {
	r.PostDeadlock = r.PostDeadlock || st.Deadlocked
	r.PostDelivered = st.DeliveredPackets
	r.PostAvgLatency = st.AvgLatency()
	r.PostP50 = st.LatencyPercentile(50)
	r.PostP95 = st.LatencyPercentile(95)
	r.PostP99 = st.LatencyPercentile(99)
	r.PostThroughput = st.ThroughputFlitsPerCycle()
}

// half returns the pre- or post-removal design's topology and routes
// (the table for single-path designs, the set for adaptive ones).
func (de *designEval) half(pre bool) (*topology.Topology, *route.Table, *route.RouteSet) {
	if pre {
		return de.preTop, de.preTab, de.preSet
	}
	return de.postTop, de.postTab, de.postSet
}

// newSim builds a simulator over one of the design's two halves.
func (de *designEval) newSim(pre bool, w *traffic.Graph, cfg wormhole.Config) (*wormhole.Simulator, error) {
	top, tab, set := de.half(pre)
	if de.adaptive {
		return wormhole.NewAdaptive(top, w, set, cfg)
	}
	return wormhole.New(top, w, tab, cfg)
}

// newBatch builds a lockstep batch over one of the design's two halves.
func (de *designEval) newBatch(pre bool, w *traffic.Graph, cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
	top, tab, set := de.half(pre)
	if de.adaptive {
		return wormhole.NewAdaptiveBatch(top, w, set, cfg, vs)
	}
	return wormhole.NewBatch(top, w, tab, cfg, vs)
}

// simEvalBatch is the batched verification stage: simulate's exact
// pre-witness → post-witness → measurement sequence, with each stage run
// as one lockstep batch across the group's per-cell seeds instead of a
// simulator per cell. Per-cell outcomes are byte-identical to simulate
// with the same seed (the grouped-sweep differential pins this). When
// loads is non-empty, the measurement batch additionally carries one
// lane per (seed, load) pair and the extra points land in each cell's
// LoadSweep, leaving the canonical params.Load measurement untouched.
func (de *designEval) simEvalBatch(ctx context.Context, params SimParams, seeds []int64, loads []float64, parallel int) ([]*SimResult, error) {
	params = params.withDefaults()
	results := make([]*SimResult, len(seeds))
	for i := range results {
		results[i] = &SimResult{}
	}
	cfg := params.config()
	// One witness lane per seed. A seed of 0 normalizes to the base
	// config's defaulted seed inside the batch — the same fallback a
	// zero Config.Seed gets on the per-cell path.
	witnessVs := make([]wormhole.Variant, len(seeds))
	for i, s := range seeds {
		witnessVs[i] = wormhole.Variant{Seed: s}
	}

	if !de.initialAcyclic {
		w, nflows, err := de.witness()
		if err != nil {
			return nil, fmt.Errorf("runner: witness workload: %w", err)
		}
		if w != nil {
			// See simulate: the witness runs always pin load 1.
			witnessCfg := cfg
			witnessCfg.LoadFactor = 1.0
			pre, err := de.newBatch(true, w, witnessCfg, witnessVs)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			preStats, err := pre.RunContext(ctx, parallel)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			postW, err := de.newBatch(false, w, witnessCfg, witnessVs)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			wStats, err := postW.RunContext(ctx, parallel)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			for i, res := range results {
				res.PreRan = true
				res.WitnessFlows = nflows
				res.PreDeadlock = preStats[i].Deadlocked
				res.PreDeadlockCycle = preStats[i].DeadlockCycle
				if wStats[i].Deadlocked {
					res.PostDeadlock = true
				}
			}
		}
	}

	// Measurement lanes, seed-major: each seed's canonical params.Load
	// run followed by its load-sweep points.
	stride := 1 + len(loads)
	measureVs := make([]wormhole.Variant, 0, len(seeds)*stride)
	for _, s := range seeds {
		measureVs = append(measureVs, wormhole.Variant{Seed: s, Load: params.Load})
		for _, l := range loads {
			measureVs = append(measureVs, wormhole.Variant{Seed: s, Load: l})
		}
	}
	postCfg := cfg
	postCfg.CollectLatencies = true
	post, err := de.newBatch(false, de.g, postCfg, measureVs)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	stats, err := post.RunContext(ctx, parallel)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	for i, res := range results {
		res.measure(stats[i*stride])
		for j, l := range loads {
			lst := stats[i*stride+1+j]
			res.LoadSweep = append(res.LoadSweep, LoadPoint{
				Load:       l,
				Deadlock:   lst.Deadlocked,
				Delivered:  lst.DeliveredPackets,
				AvgLatency: lst.AvgLatency(),
				P50:        lst.LatencyPercentile(50),
				P95:        lst.LatencyPercentile(95),
				P99:        lst.LatencyPercentile(99),
				Throughput: lst.ThroughputFlitsPerCycle(),
			})
		}
	}
	return results, nil
}

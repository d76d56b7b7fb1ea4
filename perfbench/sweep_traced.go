package main

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// The traced run drives each design group through the layers' exported
// calls in the order the runner's per-cell evaluation uses: workload
// generation, synthesis or preset routing, removal, the ordering
// baseline, certification, then per cell the verification simulation
// and one lockstep batch for the load-sweep points. Its structure
// differs from the untraced runner in two places, both recorded in
// README.md: each cell's canonical simulation runs on its own
// (runner.SimEvalContext) instead of in one lockstep batch with the
// group's other seeds, and the load-sweep points form a batch per cell.

var (
	randSpec   = regexp.MustCompile(`^rand:(\d+)x(\d+)$`)
	presetSpec = regexp.MustCompile(`^(mesh|torus):(\d+)x(\d+):(uniform|bitrev|transpose)$`)
)

// tracedDesign is one built and removed design.
type tracedDesign struct {
	g               *traffic.Graph
	preTop, postTop *topology.Topology
	preTab, postTab *route.Table
	preSet, postSet *route.RouteSet
	base            cellOutcome
}

// generate builds a synthesized benchmark's traffic graph for a seed.
func generate(bench string, seed int64) (*traffic.Graph, error) {
	if m := randSpec.FindStringSubmatch(bench); m != nil {
		cores, _ := strconv.Atoi(m[1])
		fanout, _ := strconv.Atoi(m[2])
		return traffic.RandomKOut(fmt.Sprintf("%s#%d", bench, seed), cores, fanout, seed), nil
	}
	return traffic.ByName(bench)
}

// buildDesign builds and removes the group's design inside spans that
// are children of parent.
func (s *sweepSpec) buildDesign(ctx context.Context, tr *tracer, parent int, id string, job runner.Job) (*tracedDesign, error) {
	d := &tracedDesign{}
	var top *topology.Topology
	var grid *regular.Grid
	var err error
	if m := presetSpec.FindStringSubmatch(job.Benchmark); m != nil {
		cols, _ := strconv.Atoi(m[2])
		rows, _ := strconv.Atoi(m[3])
		err = tr.do("route.grid", id, parent, func() (err error) {
			if m[1] == "torus" {
				grid, err = regular.Torus(cols, rows)
			} else {
				grid, err = regular.Mesh(cols, rows)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		n := cols * rows
		err = tr.do("traffic.generate", id, parent, func() (err error) {
			switch m[4] {
			case "uniform":
				d.g, err = regular.UniformTraffic(n, n/2, 100)
			case "bitrev":
				d.g, err = traffic.BitReversal(n)
			default:
				d.g, err = traffic.Transpose(n)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		top = grid.Topology
		model, err := route.ParseTurnModel(job.Routing)
		if err != nil {
			return nil, err
		}
		if model == route.DOR {
			err = tr.do("route.dor", id, parent, func() (err error) {
				d.preTab, err = regular.DORRoutes(grid, d.g)
				return err
			})
		} else {
			err = tr.do("route.turnmodel", id, parent, func() (err error) {
				d.preSet, err = route.GridRoutes(top, d.g, grid.Spec(), model, 0)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
	} else {
		err = tr.do("traffic.generate", id, parent, func() (err error) {
			d.g, err = generate(job.Benchmark, job.Seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		var des *synth.Result
		err = tr.do("synth.synthesize", id, parent, func() (err error) {
			des, err = synth.SynthesizeContext(ctx, d.g, synth.Options{SwitchCount: job.SwitchCount})
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.add("synth.calls", 1)
		top, d.preTab = des.Topology, des.Routes
	}
	d.preTop = top
	d.base.Cores = d.g.NumCores()
	d.base.Links = top.NumLinks()

	opts := core.Options{Selection: core.SmallestFirst}
	if d.preSet != nil {
		var rm *core.SetResult
		err = tr.do("core.remove_set", id, parent, func() (err error) {
			rm, err = core.RemoveSetContext(ctx, top, d.preSet, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		d.postTop, d.postSet = rm.Topology, rm.Routes
		d.base.InitialAcyclic, d.base.RemovalVCs, d.base.Breaks = rm.InitialAcyclic, rm.AddedVCs, rm.Iterations
		d.base.MaxRouteLen, d.base.Paths = d.preSet.MaxLen(), d.preSet.TotalPaths()
	} else {
		var rm *core.Result
		err = tr.do("core.remove", id, parent, func() (err error) {
			rm, err = core.RemoveContext(ctx, top, d.preTab, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		d.postTop, d.postTab = rm.Topology, rm.Routes
		d.base.InitialAcyclic, d.base.RemovalVCs, d.base.Breaks = rm.InitialAcyclic, rm.AddedVCs, rm.Iterations
		d.base.MaxRouteLen = d.preTab.MaxLen()
	}
	tr.add("core.breaks", float64(d.base.Breaks))

	err = tr.do("ordering.apply", id, parent, func() error {
		tab := d.preTab
		if d.preSet != nil {
			tab, _ = d.preSet.Flatten()
		}
		ro, err := ordering.Apply(top, tab, ordering.HopIndex)
		if err != nil {
			return err
		}
		d.base.OrderingVCs = ro.AddedVCs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// certifyDesign marshals one design into the bundle the checker reads,
// then checks it and validates the certificate's witness.
func certifyDesign(tr *tracer, parent int, id string, top *topology.Topology, tab *route.Table, set *route.RouteSet, mode string) (*certify.Certificate, error) {
	var doc []byte
	err := tr.do("certify.encode", id, parent, func() error {
		topRaw, err := json.Marshal(top)
		if err != nil {
			return err
		}
		var routesRaw []byte
		if set != nil {
			routesRaw, err = json.Marshal(set)
		} else {
			routesRaw, err = json.Marshal(tab)
		}
		if err != nil {
			return err
		}
		doc, err = json.Marshal(struct {
			Topology json.RawMessage `json:"topology"`
			Routes   json.RawMessage `json:"routes"`
		}{topRaw, routesRaw})
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.add("certify.bundle_bytes", float64(len(doc)))
	var cert *certify.Certificate
	if err := tr.do("certify.check", id, parent, func() (err error) {
		cert, err = certify.Check(doc, mode)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("certify.validate", id, parent, func() error {
		return certify.Validate(cert, doc)
	}); err != nil {
		return nil, err
	}
	return cert, nil
}

// agreement applies the runner's three-leg agreement rule to one cell.
func agreement(c *runner.CertResult, initialAcyclic bool, sim *runner.SimResult) {
	switch {
	case c.PreAcyclic != initialAcyclic:
		c.Mismatch = fmt.Sprintf("pre design: checker says acyclic=%v, removal says %v", c.PreAcyclic, initialAcyclic)
	case !c.PostAcyclic:
		c.Mismatch = "post design: checker found a dependency cycle after removal"
	case sim != nil && sim.PreRan && !c.PreAcyclic && !sim.PreDeadlock:
		c.Mismatch = "pre design: certified cycle witness did not deadlock in simulation"
	case sim != nil && sim.PostDeadlock:
		c.Mismatch = "post design: simulation deadlocked on a certified-acyclic design"
	default:
		c.Agree = true
	}
}

// simulateCell runs one cell's verification simulation and its load-sweep
// batch.
func (s *sweepSpec) simulateCell(ctx context.Context, tr *tracer, parent int, id string, d *tracedDesign, job runner.Job) (*runner.SimResult, error) {
	params := s.sim
	params.Seed = s.simSeed(job)
	var sim *runner.SimResult
	err := tr.do("wormhole.simeval", id, parent, func() (err error) {
		if d.preSet != nil {
			sim, err = runner.SimEvalSetContext(ctx, d.g, d.preTop, d.preSet, d.base.InitialAcyclic, d.postTop, d.postSet, params)
		} else {
			sim, err = runner.SimEvalContext(ctx, d.g, d.preTop, d.preTab, d.base.InitialAcyclic, d.postTop, d.postTab, params)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.add("wormhole.sim_cycles", float64(simCycles(sim, params.Cycles)))
	if len(s.loads) == 0 {
		return sim, nil
	}
	cfg := wormhole.Config{
		MaxCycles:        params.Cycles,
		LoadFactor:       params.Load,
		BufferDepth:      params.BufferDepth,
		Adaptive:         params.Adaptive,
		CollectLatencies: true,
	}
	vs := make([]wormhole.Variant, len(s.loads))
	for i, l := range s.loads {
		vs[i] = wormhole.Variant{Seed: params.Seed, Load: l}
	}
	var b *wormhole.Batch
	err = tr.do("wormhole.build", id, parent, func() (err error) {
		if d.postSet != nil {
			b, err = wormhole.NewAdaptiveBatch(d.postTop, d.g, d.postSet, cfg, vs)
		} else {
			b, err = wormhole.NewBatch(d.postTop, d.g, d.postTab, cfg, vs)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var stats []*wormhole.Stats
	if err := tr.do("wormhole.run", id, parent, func() (err error) {
		stats, err = b.RunContext(ctx, 1)
		return err
	}); err != nil {
		return nil, err
	}
	for i, st := range stats {
		tr.add("wormhole.sim_cycles", float64(st.Cycles))
		sim.LoadSweep = append(sim.LoadSweep, runner.LoadPoint{
			Load:       s.loads[i],
			Deadlock:   st.Deadlocked,
			Delivered:  st.DeliveredPackets,
			AvgLatency: st.AvgLatency(),
			P50:        st.LatencyPercentile(50),
			P95:        st.LatencyPercentile(95),
			P99:        st.LatencyPercentile(99),
			Throughput: st.ThroughputFlitsPerCycle(),
		})
	}
	return sim, nil
}

// tracedGroup evaluates one design group and returns its cells'
// outcomes by cell ID.
func (s *sweepSpec) tracedGroup(ctx context.Context, tr *tracer, members []runner.Job) (map[string]cellOutcome, error) {
	id := cellID(members[0])
	root := tr.begin("runner.group", id, -1)
	defer tr.end(root)
	d, err := s.buildDesign(ctx, tr, root, id, members[0])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	var cert *runner.CertResult
	if s.certify {
		pre, err := certifyDesign(tr, root, id, d.preTop, d.preTab, d.preSet, "pre")
		if err != nil {
			return nil, fmt.Errorf("%s: certify pre: %w", id, err)
		}
		post, err := certifyDesign(tr, root, id, d.postTop, d.postTab, d.postSet, "post")
		if err != nil {
			return nil, fmt.Errorf("%s: certify post: %w", id, err)
		}
		cert = &runner.CertResult{
			Salt:       certify.Salt,
			PreAcyclic: pre.Acyclic, PreCycleLen: len(pre.Cycle),
			PostAcyclic: post.Acyclic, PostSHA256: post.DesignSHA256,
		}
	}
	out := make(map[string]cellOutcome, len(members))
	for _, job := range members {
		o := d.base
		if s.simulate {
			if o.Sim, err = s.simulateCell(ctx, tr, root, cellID(job), d, job); err != nil {
				return nil, fmt.Errorf("%s: simulate: %w", cellID(job), err)
			}
		}
		if cert != nil {
			c := *cert
			agreement(&c, d.base.InitialAcyclic, o.Sim)
			o.Cert = &c
		}
		out[cellID(job)] = o
	}
	return out, nil
}

// tracedPass evaluates every design group with as many workers as the
// runner uses.
func (s *sweepSpec) tracedPass(ctx context.Context, tr *tracer, groups [][]runner.Job) (map[string]cellOutcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	out := map[string]cellOutcome{}
	idx := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range idx {
				res, err := s.tracedGroup(ctx, tr, groups[gi])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
					cancel()
				}
				for k, v := range res {
					out[k] = v
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for gi := range groups {
		select {
		case idx <- gi:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return out, firstErr
}

// designGroups partitions the grid's cells into design groups in
// first-appearance order, as the runner schedules them.
func designGroups(jobs []runner.Job) [][]runner.Job {
	byKey := map[string]int{}
	var groups [][]runner.Job
	for _, j := range jobs {
		k := designKey(j)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], j)
	}
	return groups
}

// traced alternates an untraced runner pass with a traced pass until the
// run's time is spent, checks that every traced cell reproduces the
// runner's report, and reports the per-layer metrics plus the tracing
// overhead (traced over untraced wall time, medians over passes).
func (s *sweepSpec) traced(ctx context.Context, name string, cfg runConfig) (metricSet, *checks, error) {
	grid := s.grid(cfg.seed)
	if err := grid.Validate(); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	groups := designGroups(grid.Jobs())
	c := &checks{}
	tr := newTracer()
	var (
		first                                        *passFacts
		untraced, tracedWalls                        []float64
		cellRates, designRates, cycleRates, removals []float64
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
		untraced = append(untraced, f.wall.Seconds())
		cellRates = append(cellRates, float64(f.cells)/f.wall.Seconds())
		designRates = append(designRates, float64(f.designs)/f.wall.Seconds())
		cycleRates = append(cycleRates, float64(f.simCycles)/f.wall.Seconds())
		removals = append(removals, f.removals...)

		tr.nextPass()
		t0 := time.Now()
		out, err := s.tracedPass(ctx, tr, groups)
		if err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		c.expect(len(out) == len(f.outcomes), "traced run has %d cells, report %d", len(out), len(f.outcomes))
		for id, want := range f.outcomes {
			got, ok := out[id]
			// Both already encoded cleanly: the runner's report and
			// the traced outcome hold the same plain types.
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			c.expect(ok && string(wj) == string(gj), "traced cell %s differs from the report:\n  report %s\n  traced %s", id, wj, gj)
		}
	}
	if err := writeSpans(cfg.traceOut, tr.spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	m := tr.layerMetrics("runner.group")
	m.set("cells_per_s", median(cellRates), "1/s")
	m.set("jobs_per_s", median(designRates), "1/s")
	m.set("remove_p50_ms", median(removals), "ms")
	m.set("remove_p95_ms", quantile(removals, 0.95), "ms")
	if s.simulate {
		m.set("sim_cycles_per_s", median(cycleRates), "1/s")
		m.set("sim_latency_cycles", first.simLatency, "cycles")
		m.set("sim_throughput_fpc", first.simThroughput, "flits/cycle")
	}
	m.set("trace.overhead_ratio", median(tracedWalls)/median(untraced), "ratio")
	return m, c, nil
}

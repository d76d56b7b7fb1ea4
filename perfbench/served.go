package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/reconfig"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/serve"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// servedClients is the closed loop's client count; each client holds one
// connection and sends its next job only after the previous one reached
// a terminal state.
const servedClients = 2

// servedSpec is the served workload: rounds of a fixed job list per
// client against a fresh serve.Server whose result cache starts empty.
// Each client's cold removals are its share of the paper designs
// followed by its seeded random designs; every second cold removal is
// followed by a repeat of the previous one (a cache hit) and a
// single-fault reconfiguration of the mesh design.
type servedSpec struct {
	// paper are seed-independent cold designs, "<benchmark>@<switches>",
	// dealt to the clients in turn; each has a known answer.
	paper []string
	// randPerClient seeded designs of randSpec per client are
	// synthesized at the switches values in turn.
	randPerClient int
	randSpec      string
	switches      []int
	// meshSide is the side of the odd-even routed mesh the
	// reconfigurations fault.
	meshSide int
}

// servedOp is one job a client submits.
type servedOp struct {
	kind  string // "remove", "repeat" or "reconfigure"
	label string
	path  string
	body  []byte
	// of is, for a repeat, the index of the cold op it repeats.
	of int
	// anchor names a seed-independent cold design's known answer.
	anchor string
	// fault is a reconfiguration's faulted link.
	fault int
}

// servedInputs are one run's generated job lists.
type servedInputs struct {
	clients [servedClients][]servedOp
}

// coldDesign is one design a client removes cold.
type coldDesign struct {
	bench    string
	switches int
	seed     int64
	anchor   string
}

// colds lists client c's cold designs for a run seed.
func (s *servedSpec) colds(c int, seed int64) ([]coldDesign, error) {
	var out []coldDesign
	for i := c; i < len(s.paper); i += servedClients {
		bench, sw, _ := strings.Cut(s.paper[i], "@")
		n, err := strconv.Atoi(sw)
		if err != nil {
			return nil, fmt.Errorf("paper design %q: %w", s.paper[i], err)
		}
		out = append(out, coldDesign{bench: bench, switches: n, anchor: s.paper[i]})
	}
	for i := 0; i < s.randPerClient; i++ {
		n := c*s.randPerClient + i
		out = append(out, coldDesign{
			bench:    s.randSpec,
			switches: s.switches[n%len(s.switches)],
			seed:     seed*int64(servedClients*s.randPerClient) + int64(n),
		})
	}
	return out, nil
}

// setup generates the job lists from the seed: the cold designs
// (workload generation and synthesis) and the removed mesh design the
// reconfigurations start from (turn-model routes and removal), each
// encoded as its request body.
func (s *servedSpec) setup(ctx context.Context, tr *tracer, seed int64) (*servedInputs, error) {
	const id = "setup"
	var colds [servedClients][]coldDesign
	reconfigs := 0
	for c := range colds {
		var err error
		if colds[c], err = s.colds(c, seed); err != nil {
			return nil, err
		}
		reconfigs += len(colds[c]) / 2
	}
	design, faults, err := s.meshDesign(ctx, tr, seed, reconfigs)
	if err != nil {
		return nil, fmt.Errorf("mesh design: %w", err)
	}
	in := &servedInputs{}
	for c := range colds {
		var ops []servedOp
		prevCold := 0
		for i, cd := range colds[c] {
			var g *traffic.Graph
			if err := tr.do("traffic.generate", id, -1, func() (err error) {
				g, err = generate(cd.bench, cd.seed)
				return err
			}); err != nil {
				return nil, err
			}
			var des *synth.Result
			if err := tr.do("synth.synthesize", id, -1, func() (err error) {
				des, err = synth.SynthesizeContext(ctx, g, synth.Options{SwitchCount: cd.switches})
				return err
			}); err != nil {
				return nil, err
			}
			tr.add("synth.calls", 1)
			body, err := json.Marshal(struct {
				Topology *topology.Topology `json:"topology"`
				Routes   *route.Table       `json:"routes"`
			}{des.Topology, des.Routes})
			if err != nil {
				return nil, err
			}
			ops = append(ops, servedOp{kind: "remove", label: fmt.Sprintf("c%d/cold%d", c, i), path: "/v1/remove", body: body, anchor: cd.anchor})
			if i%2 == 0 {
				prevCold = len(ops) - 1
				continue
			}
			ops = append(ops, servedOp{kind: "repeat", label: fmt.Sprintf("c%d/repeat%d", c, i-1), path: "/v1/remove", body: ops[prevCold].body, of: prevCold})
			fault := faults[0]
			faults = faults[1:]
			body, err = json.Marshal(map[string]any{
				"design":  design,
				"faults":  []int{fault},
				"options": map[string]any{"skip_sim": true},
			})
			if err != nil {
				return nil, err
			}
			ops = append(ops, servedOp{kind: "reconfigure", label: fmt.Sprintf("c%d/reconfigure%d", c, i/2), path: "/v1/reconfigure", body: body, fault: fault})
		}
		in.clients[c] = ops
	}
	return in, nil
}

// meshDesign builds the removed odd-even mesh design the
// reconfigurations fault, and n links, chosen from the seed, that keep
// the mesh connected.
func (s *servedSpec) meshDesign(ctx context.Context, tr *tracer, seed int64, n int) (*reconfig.Design, []int, error) {
	const id = "setup"
	var grid *regular.Grid
	if err := tr.do("route.grid", id, -1, func() (err error) {
		grid, err = regular.Mesh(s.meshSide, s.meshSide)
		return err
	}); err != nil {
		return nil, nil, err
	}
	cores := s.meshSide * s.meshSide
	var g *traffic.Graph
	if err := tr.do("traffic.generate", id, -1, func() (err error) {
		g, err = regular.UniformTraffic(cores, cores/2, 100)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var set *route.RouteSet
	if err := tr.do("route.turnmodel", id, -1, func() (err error) {
		set, err = route.GridRoutes(grid.Topology, g, grid.Spec(), route.OddEven, 0)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var rm *core.SetResult
	if err := tr.do("core.remove_set", id, -1, func() (err error) {
		rm, err = core.RemoveSetContext(ctx, grid.Topology, set, core.Options{})
		return err
	}); err != nil {
		return nil, nil, err
	}
	tr.add("core.breaks", float64(rm.Iterations))
	var ids []topology.LinkID
	if err := tr.do("route.faults", id, -1, func() (err error) {
		ids, err = regular.SelectFaults(grid, n, seed)
		return err
	}); err != nil {
		return nil, nil, err
	}
	faults := make([]int, len(ids))
	for i, l := range ids {
		faults[i] = int(l)
	}
	return &reconfig.Design{
		Grid: grid.Spec(), Model: route.OddEven,
		Topology: rm.Topology, Traffic: g, Routes: rm.Routes,
	}, faults, nil
}

// opResult is one job's outcome as the client saw it.
type opResult struct {
	status         int
	accept, total  time.Duration
	state          string
	cached         bool
	result         json.RawMessage
	jobErr         string
	transportError error
}

// client is one closed-loop client with its own single connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// run submits one job, then follows its event stream to the terminal
// state event, which carries the result document.
func (cl *client) run(ctx context.Context, tr *tracer, op servedOp) opResult {
	var r opResult
	root := tr.begin("serve.job", op.label, -1)
	defer tr.end(root)
	t0 := time.Now()
	acc := tr.begin("serve.accept", op.label, root)
	id, status, err := cl.submit(ctx, op)
	tr.end(acc)
	r.accept, r.status = time.Since(t0), status
	if err != nil {
		r.transportError = err
		return r
	}
	wait := tr.begin("serve.wait", op.label, root)
	err = cl.await(ctx, id, &r)
	tr.end(wait)
	r.total = time.Since(t0)
	if err != nil {
		r.transportError = err
	}
	return r
}

func (cl *client) submit(ctx context.Context, op servedOp) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+op.path, bytes.NewReader(op.body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.http.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, fmt.Errorf("POST %s: %s: %s", op.path, resp.Status, strings.TrimSpace(string(body)))
	}
	var a struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &a); err != nil || a.ID == "" {
		return "", resp.StatusCode, fmt.Errorf("POST %s: bad accept document %q", op.path, body)
	}
	return a.ID, resp.StatusCode, nil
}

func (cl *client) await(ctx context.Context, id string, r *opResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 256<<20)
	stateNext := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: state" {
			stateNext = true
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || !stateNext {
			continue
		}
		var st struct {
			State  string          `json:"state"`
			Cached bool            `json:"cached"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		r.state, r.cached, r.jobErr, r.result = st.State, st.Cached, st.Error, st.Result
		// Drain the rest so the connection is reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	return fmt.Errorf("events %s: stream ended without a terminal state", id)
}

// roundFacts is what one round of the job lists produced.
type roundFacts struct {
	// wall is the round's wall time; cpu the process CPU time it used.
	wall, cpu                              time.Duration
	jobs                                   int
	removeMs, reconfigMs, acceptMs, waitMs []float64
	addedVCs, rerouted                     int
	rejected                               int
	hits, misses                           uint64
	// digests are the result documents' hashes, client-major in job
	// order.
	digests [][sha256.Size]byte
	// anchors are the results of the seed-independent cold designs.
	anchors map[string]cellAnswer
}

// round starts a server with an empty cache on loopback, runs every
// client's job list to completion (the timed part), checks each job's
// result, and stops the server.
func (s *servedSpec) round(ctx context.Context, c *checks, name string, tr *tracer, in *servedInputs) (*roundFacts, error) {
	cache := fabric.NewCache(fabric.CacheOptions{})
	srv := serve.New(serve.Options{Workers: runtime.NumCPU(), Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	var results [servedClients][]opResult
	clients := make([]*client, servedClients)
	done := make(chan struct{}, servedClients)
	t0, c0 := time.Now(), cpuTime()
	for ci := range clients {
		clients[ci] = newClient(base)
		go func(ci int) {
			defer func() { done <- struct{}{} }()
			for _, op := range in.clients[ci] {
				results[ci] = append(results[ci], clients[ci].run(ctx, tr, op))
			}
		}(ci)
	}
	for range clients {
		<-done
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	stats := cache.Stats()

	for _, cl := range clients {
		cl.http.CloseIdleConnections()
	}
	srv.Cancel()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutdownErr := hs.Shutdown(shutdownCtx)
	cancel()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		shutdownErr = errors.Join(shutdownErr, err)
	}
	srv.Close()
	if shutdownErr != nil {
		return nil, fmt.Errorf("server shutdown: %w", shutdownErr)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	f := &roundFacts{wall: wall, cpu: cpu, hits: stats.Hits, misses: stats.Misses, anchors: map[string]cellAnswer{}}
	colds, repeats := 0, 0
	for ci, ops := range in.clients {
		for k, op := range ops {
			r := results[ci][k]
			f.jobs++
			f.acceptMs = append(f.acceptMs, ms(r.accept))
			if r.status == http.StatusTooManyRequests {
				f.rejected++
			}
			problem := s.jobProblem(name, op, r, results[ci])
			c.expect(problem == "", "%s: %s", op.label, problem)
			f.digests = append(f.digests, sha256.Sum256(r.result))
			switch op.kind {
			case "remove":
				colds++
			case "repeat":
				repeats++
			}
			if r.transportError != nil || r.state != "done" {
				continue
			}
			f.waitMs = append(f.waitMs, ms(r.total-r.accept))
			switch op.kind {
			case "remove", "repeat":
				f.removeMs = append(f.removeMs, ms(r.total))
				if op.kind == "repeat" {
					continue
				}
				var doc removeDoc
				_ = json.Unmarshal(r.result, &doc) // shape checked by jobProblem
				f.addedVCs += doc.AddedVCs
				if op.anchor != "" {
					f.anchors[op.anchor] = cellAnswer{RemovalVCs: doc.AddedVCs, Breaks: doc.Iterations}
				}
			case "reconfigure":
				f.reconfigMs = append(f.reconfigMs, ms(r.total))
				var doc reconfigureDoc
				_ = json.Unmarshal(r.result, &doc) // shape checked by jobProblem
				f.addedVCs += doc.VCsAdded
				for _, d := range doc.Deltas {
					f.rerouted += len(d.FlowsMoved)
				}
			}
		}
	}
	c.expect(f.hits == uint64(repeats) && f.misses == uint64(colds),
		"cache counted %d hits and %d misses for %d repeats and %d cold removals", f.hits, f.misses, repeats, colds)
	return f, nil
}

type removeDoc struct {
	DeadlockFree bool `json:"deadlock_free"`
	AddedVCs     int  `json:"added_vcs"`
	Iterations   int  `json:"iterations"`
}

type reconfigureDoc struct {
	VCsAdded int `json:"vcs_added"`
	Deltas   []struct {
		Fault      int   `json:"fault"`
		FlowsMoved []int `json:"flows_moved"`
		Acyclic    bool  `json:"acyclic"`
	} `json:"deltas"`
}

// jobProblem describes why a job fails its checks ("" when it passes):
// refused or failed jobs, removals that are not deadlock-free, cache
// hits that are not byte-identical to their cold computation, known
// answers, and reconfigurations that did not commit an acyclic design.
func (s *servedSpec) jobProblem(name string, op servedOp, r opResult, prior []opResult) string {
	switch {
	case r.transportError != nil:
		return r.transportError.Error()
	case r.state != "done":
		return fmt.Sprintf("job ended %s: %s", r.state, r.jobErr)
	}
	switch op.kind {
	case "remove", "repeat":
		var doc removeDoc
		if err := json.Unmarshal(r.result, &doc); err != nil {
			return fmt.Sprintf("remove result: %v", err)
		}
		if !doc.DeadlockFree {
			return "remove result is not deadlock-free"
		}
		if op.kind == "repeat" {
			if !r.cached {
				return "repeated design was not served from the cache"
			}
			if !bytes.Equal(r.result, prior[op.of].result) {
				return "cached result differs from its cold computation"
			}
			return ""
		}
		if r.cached {
			return "cold design was served from the cache"
		}
		return known.cellProblem(name, op.anchor, doc.AddedVCs, 0, doc.Iterations)
	default:
		var doc reconfigureDoc
		if err := json.Unmarshal(r.result, &doc); err != nil {
			return fmt.Sprintf("reconfigure result: %v", err)
		}
		if len(doc.Deltas) != 1 || doc.Deltas[0].Fault != op.fault || !doc.Deltas[0].Acyclic {
			return fmt.Sprintf("reconfigure did not commit one acyclic delta for link %d", op.fault)
		}
		return ""
	}
}

// checkRound compares a round with the first one (result documents are
// deterministic) and with the seed's committed totals.
func checkRound(c *checks, name string, seed int64, f, first *roundFacts) {
	if first != nil {
		same := len(f.digests) == len(first.digests)
		for i := 0; same && i < len(f.digests); i++ {
			same = f.digests[i] == first.digests[i]
		}
		c.expect(same, "result documents differ between rounds")
	}
	known.checkSeed(c, name, seed, f.totals())
}

// totals are a round's deterministic, seed-dependent totals.
func (f *roundFacts) totals() map[string]float64 {
	return map[string]float64{
		"added_vcs":               float64(f.addedVCs),
		"reconfig.rerouted_flows": float64(f.rerouted),
	}
}

func (s *servedSpec) untraced(ctx context.Context, name string, cfg runConfig) (metricSet, *checks, error) {
	in, setupS, err := measureSetup(func() (*servedInputs, error) { return s.setup(ctx, nil, cfg.seed) })
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	c := &checks{}
	var (
		first *roundFacts
		rates []float64
	)
	start := time.Now()
	for first == nil || time.Since(start) < cfg.seconds {
		f, err := s.round(ctx, c, name, nil, in)
		if err != nil {
			return nil, nil, err
		}
		checkRound(c, name, cfg.seed, f, first)
		if first == nil {
			first = f
		}
		rates = append(rates, float64(f.jobs)/f.cpu.Seconds())
	}
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("cells_per_cpu_s", median(rates), "1/s")
	m.set("added_vcs", float64(first.addedVCs), "count")
	return m, c, nil
}

// traced alternates an untraced round with a traced set-up and round
// until the run's time is spent, checks that the traced round's result
// documents equal the untraced ones, and reports the per-layer metrics.
func (s *servedSpec) traced(ctx context.Context, name string, cfg runConfig) (metricSet, *checks, error) {
	in, err := s.setup(ctx, nil, cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	c := &checks{}
	tr := newTracer()
	var (
		first                                    *roundFacts
		untraced, tracedWalls, rates             []float64
		removals, reconfigs, accepts, waits      []float64
		hits, misses, rejected, rerouted, ratios []float64
	)
	start := time.Now()
	for first == nil || time.Since(start) < cfg.seconds {
		f, err := s.round(ctx, c, name, nil, in)
		if err != nil {
			return nil, nil, err
		}
		checkRound(c, name, cfg.seed, f, first)
		if first == nil {
			first = f
		}
		untraced = append(untraced, f.wall.Seconds())
		rates = append(rates, float64(f.jobs)/f.wall.Seconds())
		removals = append(removals, f.removeMs...)
		reconfigs = append(reconfigs, f.reconfigMs...)

		tr.nextPass()
		tin, err := s.setup(ctx, tr, cfg.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("traced setup: %w", err)
		}
		tf, err := s.round(ctx, c, name, tr, tin)
		if err != nil {
			return nil, nil, fmt.Errorf("traced round: %w", err)
		}
		checkRound(c, name, cfg.seed, tf, first)
		tracedWalls = append(tracedWalls, tf.wall.Seconds())
		accepts = append(accepts, tf.acceptMs...)
		waits = append(waits, tf.waitMs...)
		hits = append(hits, float64(tf.hits))
		misses = append(misses, float64(tf.misses))
		ratios = append(ratios, float64(tf.hits)/float64(max(tf.hits+tf.misses, 1)))
		rejected = append(rejected, float64(tf.rejected))
		rerouted = append(rerouted, float64(tf.rerouted))
	}
	if err := writeSpans(cfg.traceOut, tr.spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	m := tr.layerMetrics("")
	m.set("serve.accept_ms", median(accepts), "ms")
	m.set("serve.wait_ms", median(waits), "ms")
	m.set("serve.rejected", median(rejected), "count")
	m.set("fabric.hits", median(hits), "count")
	m.set("fabric.misses", median(misses), "count")
	m.set("fabric.hit_ratio", median(ratios), "ratio")
	m.set("reconfig.rerouted_flows", median(rerouted), "count")
	m.set("cells_per_s", median(rates), "1/s")
	m.set("jobs_per_s", median(rates), "1/s")
	m.set("remove_p50_ms", median(removals), "ms")
	m.set("remove_p95_ms", quantile(removals, 0.95), "ms")
	m.set("reconfig_p50_ms", median(reconfigs), "ms")
	m.set("trace.overhead_ratio", median(tracedWalls)/median(untraced), "ratio")
	return m, c, nil
}

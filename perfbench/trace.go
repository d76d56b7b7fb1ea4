package main

import (
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer. Spans stay in memory during the
// run and are written out when it ends.
type span struct {
	Name string `json:"name"`
	// ID is the cell or job the call worked for.
	ID string `json:"id"`
	// Parent is the index of the span that caused this one, -1 for a
	// root.
	Parent int   `json:"parent"`
	Pass   int   `json:"pass"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer records spans and per-pass counts. Span names are
// "<layer>.<call>"; a layer's busy time is the sum of its spans.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	pass   int
	spans  []span
	counts []map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), pass: -1}
}

// nextPass starts a new traced pass; spans and counts recorded after it
// belong to that pass.
func (t *tracer) nextPass() {
	t.mu.Lock()
	t.pass++
	t.counts = append(t.counts, map[string]float64{})
	t.mu.Unlock()
}

// begin opens a span and returns its index. A nil tracer records
// nothing; every method is safe on it, so untraced code paths share the
// traced ones.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Pass: t.pass, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, id string, parent int, fn func() error) error {
	i := t.begin(name, id, parent)
	err := fn()
	t.end(i)
	return err
}

// add adds v to the current pass's count name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[t.pass][name] += v
	t.mu.Unlock()
}

// passTimes is one pass's span time in milliseconds: per span name, per
// layer, and the self time of root spans named self (span minus the part
// its direct children cover; a root's children run one after another).
type passTimes struct {
	byName, byLayer map[string]float64
	self            float64
}

func (t *tracer) times(pass int, self string) passTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	pt := passTimes{byName: map[string]float64{}, byLayer: map[string]float64{}}
	child := map[int]float64{}
	for _, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		d := ms(time.Duration(s.End - s.Start))
		pt.byName[s.Name] += d
		layer, _, _ := strings.Cut(s.Name, ".")
		pt.byLayer[layer] += d
		if s.Parent >= 0 {
			child[s.Parent] += d
		}
	}
	for i, s := range t.spans {
		if s.Pass == pass && s.Name == self {
			pt.self += ms(time.Duration(s.End-s.Start)) - child[i]
		}
	}
	return pt
}

// perLayer lists every per-layer metric with its unit, in the order
// README.md documents them. Every traced run reports all of them; a
// layer a workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"traffic.busy_ms", "ms"},
	{"synth.busy_ms", "ms"},
	{"synth.calls", "count"},
	{"route.busy_ms", "ms"},
	{"core.busy_ms", "ms"},
	{"core.breaks", "count"},
	{"core.ms_per_break", "ms"},
	{"ordering.busy_ms", "ms"},
	{"certify.encode_ms", "ms"},
	{"certify.check_ms", "ms"},
	{"certify.validate_ms", "ms"},
	{"certify.bundle_bytes", "bytes"},
	{"wormhole.build_ms", "ms"},
	{"wormhole.run_ms", "ms"},
	{"wormhole.sim_cycles", "cycles"},
	{"wormhole.ns_per_lane_cycle", "ns"},
	{"runner.self_ms", "ms"},
	{"serve.accept_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.rejected", "count"},
	{"fabric.hits", "count"},
	{"fabric.misses", "count"},
	{"fabric.hit_ratio", "ratio"},
	{"reconfig.rerouted_flows", "count"},
	{"cells_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"remove_p50_ms", "ms"},
	{"remove_p95_ms", "ms"},
	{"reconfig_p50_ms", "ms"},
	{"sim_cycles_per_s", "1/s"},
	{"sim_latency_cycles", "cycles"},
	{"sim_throughput_fpc", "flits/cycle"},
	{"error_rate", "ratio"},
	{"peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// layerMetrics turns the traced passes into the per-layer metrics common
// to every workload: medians over passes of each pass's busy times and
// counts. Workload-specific entries are filled in by the caller.
func (t *tracer) layerMetrics(self string) metricSet {
	m := metricSet{}
	for _, p := range perLayer {
		m.set(p.name, 0, p.unit)
	}
	var rows []map[string]float64
	for pass := 0; pass <= t.pass; pass++ {
		pt := t.times(pass, self)
		c := t.counts[pass]
		row := map[string]float64{
			"traffic.busy_ms":      pt.byLayer["traffic"],
			"synth.busy_ms":        pt.byLayer["synth"],
			"synth.calls":          c["synth.calls"],
			"route.busy_ms":        pt.byLayer["route"],
			"core.busy_ms":         pt.byLayer["core"],
			"core.breaks":          c["core.breaks"],
			"ordering.busy_ms":     pt.byLayer["ordering"],
			"certify.encode_ms":    pt.byName["certify.encode"],
			"certify.check_ms":     pt.byName["certify.check"],
			"certify.validate_ms":  pt.byName["certify.validate"],
			"certify.bundle_bytes": c["certify.bundle_bytes"],
			"wormhole.build_ms":    pt.byName["wormhole.build"],
			"wormhole.run_ms":      pt.byName["wormhole.run"] + pt.byName["wormhole.simeval"],
			"wormhole.sim_cycles":  c["wormhole.sim_cycles"],
			"runner.self_ms":       pt.self,
		}
		if b := row["core.breaks"]; b > 0 {
			row["core.ms_per_break"] = row["core.busy_ms"] / b
		}
		if cy := row["wormhole.sim_cycles"]; cy > 0 {
			row["wormhole.ns_per_lane_cycle"] = row["wormhole.run_ms"] * 1e6 / cy
		}
		rows = append(rows, row)
	}
	for name := range rows[0] {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row[name]
		}
		m.set(name, median(vals), m[name].Unit)
	}
	return m
}

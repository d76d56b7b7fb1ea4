// Package cdg builds and analyzes the Channel Dependency Graph of
// Definition 4: one vertex per channel (physical link + virtual channel)
// and a directed edge ci→cj whenever at least one flow's route uses
// channel ci immediately followed by channel cj. Dally & Towles' theorem
// (the paper's reference [10]) makes a cycle in this graph the necessary
// condition for a routing deadlock under wormhole flow control, so
// "deadlock-free" below always means "the CDG is acyclic".
package cdg

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/nocdr/nocdr/internal/graph"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Dependency is a directed CDG edge together with the flows that create it.
type Dependency struct {
	From, To topology.Channel
	Flows    []int // flow IDs, ascending
}

// CDG is an immutable channel dependency graph built from a topology and
// a route table. Vertex IDs are dense and assigned in the topology's
// canonical (link, VC) channel order, so two CDGs built from identical
// inputs are identical.
type CDG struct {
	top       *topology.Topology
	channels  []topology.Channel
	index     map[topology.Channel]int
	g         *graph.Digraph
	edgeFlows map[[2]int][]int
}

// Build constructs the CDG for the given topology and routes. Routes may
// reference only provisioned channels; Build returns an error otherwise.
func Build(top *topology.Topology, table *route.Table) (*CDG, error) {
	channels := top.Channels()
	c := &CDG{
		top:       top,
		channels:  channels,
		index:     make(map[topology.Channel]int, len(channels)),
		g:         graph.New(len(channels)),
		edgeFlows: make(map[[2]int][]int),
	}
	for i, ch := range channels {
		c.index[ch] = i
	}
	if len(channels) > 0 {
		c.g.Ensure(len(channels) - 1)
	}
	for _, r := range table.Routes() {
		for i, ch := range r.Channels {
			if _, ok := c.index[ch]; !ok {
				return nil, fmt.Errorf("cdg: flow %d hop %d uses unprovisioned channel %v",
					r.FlowID, i, ch)
			}
		}
		for i := 0; i+1 < len(r.Channels); i++ {
			from := c.index[r.Channels[i]]
			to := c.index[r.Channels[i+1]]
			key := [2]int{from, to}
			c.edgeFlows[key] = append(c.edgeFlows[key], r.FlowID)
		}
	}
	// Insert edges in sorted (from, to) order so adjacency lists — and with
	// them every cycle search — depend only on the edge set, never on route
	// scan order. This keeps Build interchangeable with the Incremental CDG,
	// whose edges come and go in break order.
	keys := make([][2]int, 0, len(c.edgeFlows))
	for key := range c.edgeFlows {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		c.g.AddEdge(key[0], key[1])
	}
	for _, flows := range c.edgeFlows {
		sort.Ints(flows)
	}
	return c, nil
}

// BuildSet constructs the CDG over the *union* of a route set's permitted
// channel transitions: the set is flattened into pseudo-flows (one per
// candidate path, see route.RouteSet.Flatten) and Build runs on the
// result unchanged. Edge attributions (FlowsOn, Dependencies) therefore
// name pseudo-flow IDs; the returned refs map them back to (flow, path).
// For a single-path set the pseudo-flow IDs equal the real flow IDs and
// the graph is identical to Build on the equivalent table.
func BuildSet(top *topology.Topology, set *route.RouteSet) (*CDG, []route.PathRef, error) {
	tab, refs := set.Flatten()
	c, err := Build(top, tab)
	if err != nil {
		return nil, nil, err
	}
	return c, refs, nil
}

// NumChannels returns the number of CDG vertices.
func (c *CDG) NumChannels() int { return len(c.channels) }

// NumDependencies returns the number of CDG edges.
func (c *CDG) NumDependencies() int { return c.g.NumEdges() }

// Channel returns the channel for a vertex ID.
func (c *CDG) Channel(id int) topology.Channel { return c.channels[id] }

// VertexOf returns the vertex ID of a channel, if it exists in the CDG.
func (c *CDG) VertexOf(ch topology.Channel) (int, bool) {
	id, ok := c.index[ch]
	return id, ok
}

// HasDependency reports whether the dependency from→to exists.
func (c *CDG) HasDependency(from, to topology.Channel) bool {
	fi, ok1 := c.index[from]
	ti, ok2 := c.index[to]
	return ok1 && ok2 && c.g.HasEdge(fi, ti)
}

// FlowsOn returns the flows creating the dependency from→to (ascending),
// or nil if the dependency does not exist.
func (c *CDG) FlowsOn(from, to topology.Channel) []int {
	fi, ok1 := c.index[from]
	ti, ok2 := c.index[to]
	if !ok1 || !ok2 {
		return nil
	}
	return append([]int(nil), c.edgeFlows[[2]int{fi, ti}]...)
}

// Dependencies returns every CDG edge with its creating flows, sorted by
// (from, to) vertex ID.
func (c *CDG) Dependencies() []Dependency {
	edges := c.g.Edges()
	out := make([]Dependency, 0, len(edges))
	for _, e := range edges {
		out = append(out, Dependency{
			From:  c.channels[e[0]],
			To:    c.channels[e[1]],
			Flows: append([]int(nil), c.edgeFlows[[2]int{e[0], e[1]}]...),
		})
	}
	return out
}

// Acyclic reports whether the CDG has no cycles — the paper's deadlock-
// freedom condition.
func (c *CDG) Acyclic() bool { return !c.g.HasCycle() }

// SmallestCycle implements the paper's GetSmallestCycle: the shortest
// cycle as an ordered channel list (the closing dependency from the last
// back to the first channel is implicit), or nil if the CDG is acyclic.
func (c *CDG) SmallestCycle() []topology.Channel {
	ids := c.g.ShortestCycle()
	if ids == nil {
		return nil
	}
	out := make([]topology.Channel, len(ids))
	for i, id := range ids {
		out[i] = c.channels[id]
	}
	return out
}

// SmallestCycleThrough returns the shortest cycle passing through the
// given channel (rotated to start at it), or nil if the channel lies on
// no cycle or is unknown.
func (c *CDG) SmallestCycleThrough(ch topology.Channel) []topology.Channel {
	id, ok := c.index[ch]
	if !ok {
		return nil
	}
	ids := c.g.ShortestCycleThrough(id)
	if ids == nil {
		return nil
	}
	out := make([]topology.Channel, len(ids))
	for i, v := range ids {
		out[i] = c.channels[v]
	}
	return out
}

// CyclicChannels returns the channels involved in at least one cycle.
func (c *CDG) CyclicChannels() []topology.Channel {
	ids := c.g.CyclicNodes()
	out := make([]topology.Channel, len(ids))
	for i, id := range ids {
		out[i] = c.channels[id]
	}
	return out
}

// String renders a compact summary like "CDG{5 channels, 5 deps, cyclic}".
func (c *CDG) String() string {
	state := "acyclic"
	if !c.Acyclic() {
		state = "cyclic"
	}
	return fmt.Sprintf("CDG{%d channels, %d deps, %s}", c.NumChannels(), c.NumDependencies(), state)
}

// WriteDOT renders the CDG in Graphviz DOT format with the paper's
// channel naming (L1, L1', …). Vertices on cycles are drawn doubled.
func (c *CDG) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph cdg {\n  node [shape=ellipse];\n")
	cyclic := make(map[int]bool)
	for _, id := range c.g.CyclicNodes() {
		cyclic[id] = true
	}
	for id, ch := range c.channels {
		attr := ""
		if cyclic[id] {
			attr = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", id, c.top.ChannelName(ch), attr)
	}
	for _, e := range c.g.Edges() {
		flows := c.edgeFlows[[2]int{e[0], e[1]}]
		labels := make([]string, len(flows))
		for i, f := range flows {
			labels[i] = fmt.Sprintf("F%d", f+1)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e[0], e[1], strings.Join(labels, ","))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

package cdg

import "github.com/nocdr/nocdr/internal/topology"

// Snapshot is a point-in-time copy of an Incremental CDG's complete
// mutable state. It exists for the online-reconfiguration commit
// protocol: a reroute batch plus a warm-start removal replay mutate the
// live graph in place, and when the replay fails mid-way (ErrVCLimit, a
// cancellation, an inconsistent reroute) the graph must come back
// byte-identical instead of staying half-mutated. Take a Snapshot before
// the batch, Restore it on any error, drop it on commit.
//
// A Snapshot is independent of later mutations (every slice and map is
// deep-copied, except the immutable-after-construction SCC cache entries,
// which are shared) and is reusable: Restore copies out of the snapshot
// rather than aliasing it, so the same Snapshot can rescue several failed
// attempts.
type Snapshot struct {
	top       *topology.Topology
	chans     []topology.Channel
	id        map[topology.Channel]int
	order     []int
	succ      [][]int
	pred      [][]int
	edgeFlows map[[2]int][]int
	nEdges    int
	touched   map[int]bool
	inserted  [][2]int
	lb        []int
	cache     map[int]*sccEntry
	valid     bool
}

// Snapshot captures the graph's current state. Cost is O(V + E) — far
// below one removal iteration's Tarjan pass, so snapshotting per
// reconfiguration event is cheap.
func (m *Incremental) Snapshot() *Snapshot {
	return &Snapshot{
		top:       m.top,
		chans:     append([]topology.Channel(nil), m.chans...),
		id:        copyIntMap(m.id),
		order:     append([]int(nil), m.order...),
		succ:      copyAdj(m.succ),
		pred:      copyAdj(m.pred),
		edgeFlows: copyEdgeFlows(m.edgeFlows),
		nEdges:    m.nEdges,
		touched:   copyBoolMap(m.touched),
		inserted:  append([][2]int(nil), m.inserted...),
		lb:        append([]int(nil), m.lb...),
		cache:     copyCache(m.cache),
		valid:     m.valid,
	}
}

// Restore rewinds the graph to the snapshotted state, including the
// topology binding Rebind may have changed since. The scratch buffers are
// left alone — they carry no graph state, only epoch-stamped work arrays.
func (m *Incremental) Restore(s *Snapshot) {
	m.top = s.top
	m.chans = append(m.chans[:0], s.chans...)
	m.id = copyIntMap(s.id)
	m.order = append(m.order[:0], s.order...)
	m.succ = copyAdj(s.succ)
	m.pred = copyAdj(s.pred)
	m.edgeFlows = copyEdgeFlows(s.edgeFlows)
	m.nEdges = s.nEdges
	m.touched = copyBoolMap(s.touched)
	m.inserted = append(m.inserted[:0], s.inserted...)
	m.lb = append(m.lb[:0], s.lb...)
	m.cache = copyCache(s.cache)
	m.valid = s.valid
}

// Rebind points the graph's channel validation at a different topology —
// typically a clone of the original that has just had a link faulted and
// will receive the replay's new VCs. Reroutes are validated against the
// bound topology, so a reconfiguration rebinds to its working clone up
// front and relies on Restore to rebind back on failure. The clone must
// be structurally identical to the original (same switch/link IDs); only
// fault masks and VC counts may diverge.
func (m *Incremental) Rebind(top *topology.Topology) {
	m.top = top
}

func copyIntMap(src map[topology.Channel]int) map[topology.Channel]int {
	out := make(map[topology.Channel]int, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

func copyBoolMap(src map[int]bool) map[int]bool {
	out := make(map[int]bool, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

func copyAdj(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i, list := range src {
		if list != nil {
			out[i] = append([]int(nil), list...)
		}
	}
	return out
}

func copyEdgeFlows(src map[[2]int][]int) map[[2]int][]int {
	out := make(map[[2]int][]int, len(src))
	for k, v := range src {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// copyCache shallow-copies the SCC cache: entries are immutable once
// cached, so sharing them between the live graph and a snapshot is safe.
func copyCache(src map[int]*sccEntry) map[int]*sccEntry {
	out := make(map[int]*sccEntry, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

package cdg

import (
	"fmt"
	"math"
	"sort"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Reroute describes one flow's route change during a cycle break: the
// channel sequence it left and the one it now takes. It is the unit of
// localized CDG maintenance — Incremental.ApplyReroute turns it into edge
// insertions/deletions without rescanning the route table.
type Reroute struct {
	FlowID int
	Old    []topology.Channel
	New    []topology.Channel
}

// Incremental is a mutable channel dependency graph maintained across
// cycle breaks. Where Build reconstructs the whole graph from the route
// table, Incremental applies each break as a handful of edge updates and
// restricts cycle re-search to the strongly connected components those
// updates touched; untouched components keep their cached shortest cycle.
// Inside a touched component, per-vertex girth lower bounds (lb) spare
// the search every member whose bound already rules it out (see
// updateBounds and shortestCycleIn).
//
// Determinism contract: every query depends only on the current edge set,
// never on the order edges were inserted. Vertices are scanned and
// adjacency iterated in canonical (link, VC) channel order, matching the
// vertex numbering Build assigns, so Incremental and a fresh Build over
// the same topology/routes return the same cycles (see the differential
// tests in the core package).
type Incremental struct {
	top   *topology.Topology
	chans []topology.Channel       // vertex id → channel, in id-assignment order
	id    map[topology.Channel]int // channel → vertex id
	order []int                    // all vertex ids sorted by canonical channel order

	succ      [][]int          // adjacency, each list sorted by canonical channel order
	pred      [][]int          // reverse adjacency, same ordering
	edgeFlows map[[2]int][]int // edge → flow IDs creating it, ascending
	nEdges    int

	touched  map[int]bool // vertices with edge changes since the last refresh
	inserted [][2]int     // edges inserted since the last refresh
	lb       []int        // lb[v] ≤ length of the shortest cycle through v
	cache    map[int]*sccEntry
	valid    bool

	scratch scratch // reusable dense buffers for Tarjan and BFS
}

// unbounded is the girth bound of a vertex that lies on no cycle yet.
const unbounded = math.MaxInt

// maxCover caps the vertex cover of inserted edges the bound update
// accepts; a larger cover restarts the component's bounds instead. Each
// cover vertex costs two BFS passes over its component. Two is the
// largest cover any refresh needed on perfbench's four workloads and on
// BenchmarkReconfigure_Cold10x10: about 0.5% of the refreshes of the
// 192- and 256-core removals need two, every other refresh one. Bulk
// reroutes, such as the multi-flow deltas in the reconfig package's
// tests, need up to nine.
const maxCover = 2

// scratch holds the dense work arrays the refresh hot path reuses across
// iterations. Visited-state is epoch-stamped so a new search costs O(1) to
// start instead of O(V) to clear.
type scratch struct {
	epoch  int
	stamp  []int // stamp[v] == epoch ⇒ dist/parent valid for this search
	dist   []int
	parent []int
	queue  []int
	rstamp []int // backward-BFS twins of stamp/dist (updateBounds)
	rdist  []int

	compEpoch int
	compStamp []int // compStamp[v] == compEpoch ⇒ v in current component

	index   []int // Tarjan
	low     []int
	onStack []bool

	edges [][2]int // a component's inserted edges (updateBounds)
	heap  []int    // component positions, ordered by girthHeap
	exact []bool   // exact[i] ⇒ lb of component position i is its girth
}

func (s *scratch) ensure(n int) {
	if len(s.stamp) >= n {
		return
	}
	for _, a := range []*[]int{&s.stamp, &s.dist, &s.parent, &s.rstamp, &s.rdist, &s.compStamp, &s.index, &s.low} {
		*a = append(*a, make([]int, n-len(*a))...)
	}
	s.onStack = append(s.onStack, make([]bool, n-len(s.onStack))...)
}

// sccEntry caches the analysis of one non-trivial SCC: its member set and
// the shortest cycle inside it, computed on first demand. An entry
// survives a break untouched by it; it is never mutated once cached, so
// snapshots may share it.
type sccEntry struct {
	members []int // sorted by canonical channel order; members[0] is the key
	cycle   []int // shortest cycle, rotated to its minimum channel; nil until computed
	start   int   // first member (channel order) on a shortest cycle
}

// BuildIncremental constructs an Incremental CDG from a topology and route
// table, validating routes exactly like Build.
func BuildIncremental(top *topology.Topology, table *route.Table) (*Incremental, error) {
	channels := top.Channels()
	m := &Incremental{
		top:       top,
		chans:     channels,
		id:        make(map[topology.Channel]int, len(channels)),
		edgeFlows: make(map[[2]int][]int),
		touched:   make(map[int]bool),
		cache:     make(map[int]*sccEntry),
	}
	for i, ch := range channels {
		m.id[ch] = i
	}
	m.order = make([]int, len(channels))
	for i := range m.order {
		m.order[i] = i // top.Channels() is already in canonical order
	}
	m.succ = make([][]int, len(channels))
	m.pred = make([][]int, len(channels))
	for _, r := range table.Routes() {
		for i, ch := range r.Channels {
			if _, ok := m.id[ch]; !ok {
				return nil, fmt.Errorf("cdg: flow %d hop %d uses unprovisioned channel %v",
					r.FlowID, i, ch)
			}
		}
		for i := 0; i+1 < len(r.Channels); i++ {
			m.addFlowEdge(m.id[r.Channels[i]], m.id[r.Channels[i+1]], r.FlowID)
		}
	}
	// A bound of 1 holds for every vertex of any graph, so the initial
	// edges need no insertion bookkeeping.
	m.lb = make([]int, len(channels))
	for v := range m.lb {
		m.lb[v] = 1
	}
	m.inserted = nil
	return m, nil
}

// less orders vertex ids by their channel's canonical (link, VC) order.
func (m *Incremental) less(a, b int) bool {
	ca, cb := m.chans[a], m.chans[b]
	if ca.Link != cb.Link {
		return ca.Link < cb.Link
	}
	return ca.VC < cb.VC
}

// vertex returns the id of ch, creating a fresh vertex when the channel is
// new (a duplicate added by a break).
func (m *Incremental) vertex(ch topology.Channel) int {
	if v, ok := m.id[ch]; ok {
		return v
	}
	v := len(m.chans)
	m.chans = append(m.chans, ch)
	m.id[ch] = v
	m.succ = append(m.succ, nil)
	m.pred = append(m.pred, nil)
	m.lb = append(m.lb, unbounded)
	pos := sort.Search(len(m.order), func(i int) bool { return m.less(v, m.order[i]) })
	m.order = append(m.order, 0)
	copy(m.order[pos+1:], m.order[pos:])
	m.order[pos] = v
	return v
}

// insertSorted inserts v into list keeping canonical channel order.
func (m *Incremental) insertSorted(list []int, v int) []int {
	pos := sort.Search(len(list), func(i int) bool { return m.less(v, list[i]) })
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = v
	return list
}

func removeValue(list []int, v int) []int {
	for i, x := range list {
		if x == v {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// addFlowEdge records that flowID creates the dependency from→to, adding
// the edge if it did not exist.
func (m *Incremental) addFlowEdge(from, to, flowID int) {
	key := [2]int{from, to}
	flows, existed := m.edgeFlows[key]
	idx := sort.SearchInts(flows, flowID)
	if idx == len(flows) || flows[idx] != flowID {
		flows = append(flows, 0)
		copy(flows[idx+1:], flows[idx:])
		flows[idx] = flowID
	}
	m.edgeFlows[key] = flows
	if !existed {
		m.succ[from] = m.insertSorted(m.succ[from], to)
		m.pred[to] = m.insertSorted(m.pred[to], from)
		m.nEdges++
		m.touched[from] = true
		m.touched[to] = true
		m.inserted = append(m.inserted, key)
		m.valid = false
	}
}

// dropFlowEdge removes flowID from the dependency from→to, deleting the
// edge when no flow creates it anymore.
func (m *Incremental) dropFlowEdge(from, to, flowID int) error {
	key := [2]int{from, to}
	flows, ok := m.edgeFlows[key]
	if !ok {
		return fmt.Errorf("cdg: reroute removes missing dependency %v→%v", m.chans[from], m.chans[to])
	}
	idx := sort.SearchInts(flows, flowID)
	if idx == len(flows) || flows[idx] != flowID {
		return fmt.Errorf("cdg: flow %d does not create dependency %v→%v", flowID, m.chans[from], m.chans[to])
	}
	flows = append(flows[:idx], flows[idx+1:]...)
	if len(flows) > 0 {
		m.edgeFlows[key] = flows
		return nil
	}
	delete(m.edgeFlows, key)
	m.succ[from] = removeValue(m.succ[from], to)
	m.pred[to] = removeValue(m.pred[to], from)
	m.nEdges--
	m.touched[from] = true
	m.touched[to] = true
	m.valid = false
	return nil
}

// ApplyReroute applies one flow's route change as localized edge updates.
// Consecutive-channel pairs common to the old and new routes are left
// untouched, so only the duplicated chain and its boundary dependencies
// invalidate cached SCC analysis.
func (m *Incremental) ApplyReroute(r Reroute) error {
	for i, ch := range r.New {
		if !m.top.ValidChannel(ch) {
			return fmt.Errorf("cdg: reroute of flow %d hop %d uses unprovisioned channel %v", r.FlowID, i, ch)
		}
	}
	oldPairs := routePairs(r.Old)
	newPairs := routePairs(r.New)
	common := make(map[[2]topology.Channel]bool, len(oldPairs))
	inNew := make(map[[2]topology.Channel]bool, len(newPairs))
	for _, p := range newPairs {
		inNew[p] = true
	}
	for _, p := range oldPairs {
		if inNew[p] {
			common[p] = true
		}
	}
	for _, p := range oldPairs {
		if common[p] {
			continue
		}
		from, okF := m.id[p[0]]
		to, okT := m.id[p[1]]
		if !okF || !okT {
			return fmt.Errorf("cdg: reroute removes dependency %v→%v between unknown channels", p[0], p[1])
		}
		if err := m.dropFlowEdge(from, to, r.FlowID); err != nil {
			return err
		}
	}
	for _, p := range newPairs {
		if common[p] {
			continue
		}
		m.addFlowEdge(m.vertex(p[0]), m.vertex(p[1]), r.FlowID)
	}
	return nil
}

// routePairs lists the consecutive-channel pairs of a route. Routes never
// repeat a channel, so the pairs are distinct.
func routePairs(chs []topology.Channel) [][2]topology.Channel {
	if len(chs) < 2 {
		return nil
	}
	out := make([][2]topology.Channel, 0, len(chs)-1)
	for i := 0; i+1 < len(chs); i++ {
		out = append(out, [2]topology.Channel{chs[i], chs[i+1]})
	}
	return out
}

// CycleFlows returns the ascending union of the flows creating any
// dependency edge of cycle (consecutive channels, wrapping). Algorithm 2
// only ever needs these flows — a flow with no edge on the cycle
// contributes no cost row — so the break hot path uses this instead of
// scanning the whole route table per cycle.
func (m *Incremental) CycleFlows(cycle []topology.Channel) []int {
	n := len(cycle)
	if n == 0 {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for i := 0; i < n; i++ {
		from, okF := m.id[cycle[i]]
		to, okT := m.id[cycle[(i+1)%n]]
		if !okF || !okT {
			continue
		}
		for _, f := range m.edgeFlows[[2]int{from, to}] {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Ints(out)
	return out
}

// NumChannels returns the number of CDG vertices.
func (m *Incremental) NumChannels() int { return len(m.chans) }

// NumDependencies returns the number of CDG edges.
func (m *Incremental) NumDependencies() int { return m.nEdges }

// Dependencies returns every edge with its creating flows, sorted by
// canonical (from, to) channel order — directly comparable with the
// immutable CDG's Dependencies for differential testing.
func (m *Incremental) Dependencies() []Dependency {
	keys := make([][2]int, 0, len(m.edgeFlows))
	for k := range m.edgeFlows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return m.less(keys[i][0], keys[j][0])
		}
		return m.less(keys[i][1], keys[j][1])
	})
	out := make([]Dependency, 0, len(keys))
	for _, k := range keys {
		out = append(out, Dependency{
			From:  m.chans[k[0]],
			To:    m.chans[k[1]],
			Flows: append([]int(nil), m.edgeFlows[k]...),
		})
	}
	return out
}

// refresh brings the SCC cache up to date: one Tarjan pass over the whole
// graph, then a fresh entry, with its girth bounds brought up to date, for
// every component that gained or lost an edge since the last refresh.
// This is the incremental hot path: a break typically touches one
// component, and every other component's cached entry is reused.
func (m *Incremental) refresh() {
	if m.valid {
		return
	}
	comps := m.nontrivialSCCs()
	next := make(map[int]*sccEntry, len(comps))
	for _, comp := range comps {
		key := comp[0]
		if old, ok := m.cache[key]; ok && sameMembers(old.members, comp) && !m.anyTouched(comp) {
			next[key] = old
			continue
		}
		m.updateBounds(comp)
		next[key] = &sccEntry{members: comp}
	}
	m.cache = next
	m.touched = make(map[int]bool)
	m.inserted = m.inserted[:0]
	m.valid = true
}

func (m *Incremental) anyTouched(comp []int) bool {
	for _, v := range comp {
		if m.touched[v] {
			return true
		}
	}
	return false
}

func sameMembers(a, b []int) bool {
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

// nontrivialSCCs runs an iterative Tarjan pass and returns the components
// that can contain a cycle (size ≥ 2, or a single vertex with a
// self-loop), each sorted by canonical channel order.
func (m *Incremental) nontrivialSCCs() [][]int {
	n := len(m.chans)
	m.scratch.ensure(n)
	index := m.scratch.index[:n]
	low := m.scratch.low[:n]
	onStack := m.scratch.onStack[:n]
	for i := range index {
		index[i] = -1
		onStack[i] = false
	}
	var (
		comps   [][]int
		tStack  []int
		counter int
	)
	type frame struct {
		node int
		next int
	}
	var callStack []frame
	for _, start := range m.order {
		if index[start] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{node: start})
		index[start] = counter
		low[start] = counter
		counter++
		tStack = append(tStack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.node
			if f.next < len(m.succ[v]) {
				w := m.succ[v][f.next]
				f.next++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					tStack = append(tStack, w)
					onStack[w] = true
					callStack = append(callStack, frame{node: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].node
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := tStack[len(tStack)-1]
					tStack = tStack[:len(tStack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 || m.hasEdge(comp[0], comp[0]) {
					sort.Slice(comp, func(i, j int) bool { return m.less(comp[i], comp[j]) })
					comps = append(comps, comp)
				}
			}
		}
	}
	return comps
}

func (m *Incremental) hasEdge(from, to int) bool {
	_, ok := m.edgeFlows[[2]int{from, to}]
	return ok
}

// updateBounds restores lb[v] ≤ girth(v) on a component that changed
// since the last refresh. Deleted edges only lengthen cycles, so they
// need nothing. Only an inserted edge that still exists inside the
// component can lie on a new cycle, and every such cycle passes through
// some vertex x of any vertex cover of those edges, so it is at least
// dist(x→v) + dist(v→x) long for each v on it: lowering lb[v] to that sum
// keeps every bound valid, and x's own bound drops to x's girth. Without
// a cover of at most maxCover vertices the component's bounds restart at 1.
func (m *Incremental) updateBounds(comp []int) {
	sc := &m.scratch
	m.stampComponent(comp)
	edges := sc.edges[:0]
	for _, e := range m.inserted {
		if sc.compStamp[e[0]] == sc.compEpoch && sc.compStamp[e[1]] == sc.compEpoch && m.hasEdge(e[0], e[1]) {
			edges = append(edges, e)
		}
	}
	sc.edges = edges
	if len(edges) == 0 {
		return
	}
	cover := coverOf(edges)
	if cover == nil {
		for _, v := range comp {
			m.lb[v] = 1
		}
		return
	}
	for _, x := range cover {
		sc.epoch++
		m.distances(x, m.succ, sc.stamp, sc.dist)
		m.distances(x, m.pred, sc.rstamp, sc.rdist)
		girth := unbounded
		for _, p := range m.pred[x] {
			if sc.compStamp[p] == sc.compEpoch && sc.dist[p]+1 < girth {
				girth = sc.dist[p] + 1
			}
		}
		for _, v := range comp {
			d := sc.dist[v] + sc.rdist[v]
			if v == x {
				d = girth
			}
			if d < m.lb[v] {
				m.lb[v] = d
			}
		}
	}
}

// coverOf greedily picks at most maxCover vertices touching every edge,
// or returns nil when it needs more. From the first uncovered edge it
// takes the endpoint touching more of the rest, so a break's edges, which
// all touch its one new channel, are covered by that channel alone. It
// reorders edges in place.
func coverOf(edges [][2]int) []int {
	touching := func(v int) int {
		n := 0
		for _, e := range edges {
			if e[0] == v || e[1] == v {
				n++
			}
		}
		return n
	}
	var cover []int
	for len(edges) > 0 {
		if len(cover) == maxCover {
			return nil
		}
		x := edges[0][0]
		if to := edges[0][1]; touching(to) > touching(x) {
			x = to
		}
		cover = append(cover, x)
		rest := edges[:0]
		for _, e := range edges {
			if e[0] != x && e[1] != x {
				rest = append(rest, e)
			}
		}
		edges = rest
	}
	return cover
}

// stampComponent marks comp as the component searches are restricted to.
func (m *Incremental) stampComponent(comp []int) {
	sc := &m.scratch
	sc.ensure(len(m.chans))
	sc.compEpoch++
	for _, v := range comp {
		sc.compStamp[v] = sc.compEpoch
	}
}

// distances runs a BFS from x over adj inside the stamped component,
// recording dist[v] and stamping stamp[v] with the current epoch for
// every vertex reached.
func (m *Incremental) distances(x int, adj [][]int, stamp, dist []int) {
	sc := &m.scratch
	stamp[x] = sc.epoch
	dist[x] = 0
	queue := append(sc.queue[:0], x)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range adj[u] {
			if sc.compStamp[v] == sc.compEpoch && stamp[v] != sc.epoch {
				stamp[v] = sc.epoch
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue[:0]
}

// shortestCycleIn finds the shortest cycle inside one SCC and the first
// member (canonical channel order) it passes through: the winner of the
// probe-every-member scan, without probing every member. Members leave a
// heap in (lb, channel order); one whose bound is not yet exact is probed
// with a BFS cut off where its cycle could no longer win. A probe that
// closes a cycle makes the bound exact, and a miss raises it to the
// cut-off. Once the heap's top is exact, every other member's girth is at
// least its bound, so none beats the top on (girth, channel order). The
// cycle is the same one too: a cut-off BFS that closes a cycle closes the
// one the unbounded BFS would.
func (m *Incremental) shortestCycleIn(comp []int) (cycle []int, start int) {
	sc := &m.scratch
	m.stampComponent(comp)
	h := girthHeap{items: sc.heap[:0], comp: comp, lb: m.lb}
	for i := range comp {
		h.items = append(h.items, i)
	}
	h.init()
	sc.heap = h.items
	if len(sc.exact) < len(comp) {
		sc.exact = make([]bool, len(comp))
	}
	exact := sc.exact[:len(comp)]
	for i := range exact {
		exact[i] = false
	}
	best, bestAt := 0, -1
	for {
		i := h.items[0]
		if exact[i] {
			break
		}
		v := comp[i]
		bound := 0 // unbounded until some member's girth is known
		if bestAt >= 0 {
			bound = best // a later member must be strictly shorter to win
			if i < bestAt {
				bound++ // an earlier one wins a tie
			}
		}
		if last, n := m.probe(v, bound); last >= 0 {
			m.lb[v], exact[i] = n, true
			if bestAt < 0 || n < best || n == best && i < bestAt {
				best, bestAt = n, i
				cycle = m.pathTo(last)
			}
		} else if bestAt < 0 {
			// Defensive: every member of a non-trivial SCC is on a cycle.
			m.lb[v], exact[i] = unbounded, true
		} else if bound > m.lb[v] {
			m.lb[v] = bound
		}
		h.down(0)
	}
	if bestAt < 0 {
		return nil, -1
	}
	return m.rotateToMinChannel(cycle), comp[bestAt]
}

// girthHeap is a binary min-heap of component positions keyed by (lb of
// the member, position); positions follow canonical channel order.
type girthHeap struct {
	items []int
	comp  []int
	lb    []int
}

func (h *girthHeap) less(a, b int) bool {
	la, lb := h.lb[h.comp[a]], h.lb[h.comp[b]]
	return la < lb || la == lb && a < b
}

func (h *girthHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the heap below i after the key at i grew.
func (h *girthHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.items) {
			return
		}
		if r := c + 1; r < len(h.items) && h.less(h.items[r], h.items[c]) {
			c = r
		}
		if !h.less(h.items[c], h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// probe runs one BFS for the shortest cycle through start, restricted to
// the component stamped by stampComponent. With bound > 0 only a cycle
// strictly shorter than bound counts, and the BFS never enqueues a vertex
// that could only close a longer one; bound <= 0 is unbounded. It
// returns the cycle's last vertex and length, or -1 when there is none;
// pathTo(last) rebuilds the cycle until the next search. It is the single
// probe both selection policies share.
func (m *Incremental) probe(start, bound int) (last, length int) {
	if bound == 1 {
		return -1, 0
	}
	sc := &m.scratch
	sc.epoch++
	sc.stamp[start] = sc.epoch
	sc.dist[start] = 0
	sc.parent[start] = -1
	queue := append(sc.queue[:0], start)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := sc.dist[u]
		deeper := bound <= 0 || du+2 < bound
		for _, v := range m.succ[u] {
			if sc.compStamp[v] != sc.compEpoch {
				continue
			}
			if v == start {
				sc.queue = queue[:0]
				return u, du + 1
			}
			if deeper && sc.stamp[v] != sc.epoch {
				sc.stamp[v] = sc.epoch
				sc.dist[v] = du + 1
				sc.parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue[:0]
	return -1, 0
}

// pathTo returns the BFS tree path from the last probe's start to last.
func (m *Incremental) pathTo(last int) []int {
	n := m.scratch.dist[last] + 1
	out := make([]int, n)
	for x := last; x != -1; x = m.scratch.parent[x] {
		n--
		out[n] = x
	}
	return out
}

// rotateToMinChannel rotates a cycle to start at its canonically smallest
// channel, preserving orientation.
func (m *Incremental) rotateToMinChannel(cycle []int) []int {
	if len(cycle) == 0 {
		return nil
	}
	minIdx := 0
	for i, v := range cycle {
		if m.less(v, cycle[minIdx]) {
			minIdx = i
		}
	}
	if minIdx == 0 {
		return cycle
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[minIdx:]...)
	out = append(out, cycle[:minIdx]...)
	return out
}

// Acyclic reports whether the CDG currently has no cycles.
func (m *Incremental) Acyclic() bool {
	m.refresh()
	return len(m.cache) == 0
}

// SmallestCycle returns the shortest cycle in the whole CDG as an ordered
// channel list, or nil when the graph is acyclic. Among equal-length
// cycles the winner is the one found from the canonically smallest start
// channel, matching the full-rebuild search.
func (m *Incremental) SmallestCycle() []topology.Channel {
	m.refresh()
	var best *sccEntry
	for key, e := range m.cache {
		if e.cycle == nil {
			cycle, start := m.shortestCycleIn(e.members)
			e = &sccEntry{members: e.members, cycle: cycle, start: start}
			m.cache[key] = e
		}
		if e.cycle == nil {
			continue // defensive: nontrivial SCCs always have a cycle
		}
		if best == nil || len(e.cycle) < len(best.cycle) ||
			(len(e.cycle) == len(best.cycle) && m.less(e.start, best.start)) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	return m.toChannels(best.cycle)
}

// SmallestCycleThroughFirstCyclic mirrors the FirstFound selection policy:
// the shortest cycle through the canonically smallest channel that lies on
// any cycle, starting at that channel, or nil when acyclic.
func (m *Incremental) SmallestCycleThroughFirstCyclic() []topology.Channel {
	m.refresh()
	var entry *sccEntry
	for _, e := range m.cache {
		if entry == nil || m.less(e.members[0], entry.members[0]) {
			entry = e
		}
	}
	if entry == nil {
		return nil
	}
	m.stampComponent(entry.members)
	last, _ := m.probe(entry.members[0], 0)
	if last < 0 {
		return nil
	}
	return m.toChannels(m.pathTo(last))
}

func (m *Incremental) toChannels(ids []int) []topology.Channel {
	if ids == nil {
		return nil
	}
	out := make([]topology.Channel, len(ids))
	for i, v := range ids {
		out[i] = m.chans[v]
	}
	return out
}

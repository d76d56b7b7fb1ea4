package graph

// HasCycle reports whether the graph contains any directed cycle.
// It runs an iterative three-colour DFS in O(V+E).
func (g *Digraph) HasCycle() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]byte, len(g.succ))
	// Iterative DFS with an explicit stack of (node, next-successor-index)
	// frames to avoid recursion depth limits on large CDGs.
	type frame struct {
		node int
		next int
	}
	var stack []frame
	for start := range g.succ {
		if colour[start] != white {
			continue
		}
		colour[start] = grey
		stack = append(stack[:0], frame{node: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.succ[f.node]) {
				next := g.succ[f.node][f.next]
				f.next++
				switch colour[next] {
				case grey:
					return true
				case white:
					colour[next] = grey
					stack = append(stack, frame{node: next})
				}
				continue
			}
			colour[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return false
}

// ShortestCycle returns the shortest directed cycle in the graph as a node
// sequence c1…ck (the closing edge ck→c1 is implicit), or nil if the graph
// is acyclic.
//
// Following the paper's GetSmallestCycle, it runs a BFS from every vertex
// and records the shortest path that returns to its start. Ties are broken
// by the smallest starting node ID, so results are deterministic. The cycle
// is rotated so it begins at its smallest node ID.
func (g *Digraph) ShortestCycle() []int {
	n := len(g.succ)
	if n == 0 {
		return nil
	}
	// A self-loop is the shortest possible cycle, so the smallest vertex
	// carrying one wins outright. With self-loops ruled out first, a
	// 2-cycle found by the scan below cannot be beaten.
	for v, out := range g.succ {
		for _, s := range out {
			if s == v {
				return []int{v}
			}
		}
	}
	best := []int(nil)
	parent := make([]int, n)
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if len(best) == 2 {
			break
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		parent[start] = -1
		queue = append(queue[:0], start)
		found := false
		for qi := 0; qi < len(queue) && !found; qi++ {
			u := queue[qi]
			if best != nil && dist[u]+1 >= len(best) {
				continue // any cycle through u would not be shorter
			}
			for _, v := range g.succ[u] {
				if v == start {
					// Closing edge back to the start: reconstruct u…start.
					cyc := reconstructPath(parent, u)
					if best == nil || len(cyc) < len(best) {
						best = cyc
					}
					found = true
					break
				}
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
	}
	return rotateToMin(best)
}

// ShortestCycleThrough returns the shortest cycle that passes through
// node start (rotated to begin at start), or nil if start lies on no
// cycle. It is the single-source BFS probe that ShortestCycle runs from
// every vertex.
func (g *Digraph) ShortestCycleThrough(start int) []int {
	n := len(g.succ)
	if start < 0 || start >= n {
		return nil
	}
	for _, s := range g.succ[start] {
		if s == start {
			return []int{start}
		}
	}
	dist := make([]int, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	parent[start] = -1
	queue := []int{start}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.succ[u] {
			if v == start {
				return reconstructPath(parent, u)
			}
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// reconstructPath walks parent pointers from last back to the search root and
// returns root…last.
func reconstructPath(parent []int, last int) []int {
	var rev []int
	for v := last; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// rotateToMin rotates a cycle so it starts at its minimum node ID,
// preserving orientation. Returns nil for nil input.
func rotateToMin(cycle []int) []int {
	if len(cycle) == 0 {
		return nil
	}
	minIdx := 0
	for i, v := range cycle {
		if v < cycle[minIdx] {
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

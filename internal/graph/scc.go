package graph

import "sort"

// SCCs returns the strongly connected components of the graph using an
// iterative Tarjan algorithm. Components are emitted in reverse
// topological order of the condensation (callees before callers), each
// component's nodes sorted ascending for determinism.
func (g *Digraph) SCCs() [][]int {
	n := len(g.succ)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		comps   [][]int
		tStack  []int // Tarjan stack
		counter int
	)
	type frame struct {
		node int
		next int
	}
	var callStack []frame
	for start := 0; start < n; start++ {
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
			if f.next < len(g.succ[v]) {
				w := g.succ[v][f.next]
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
			// Post-order: fold lowlink into parent, emit component at root.
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
				sort.Ints(comp)
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// CyclicNodes returns the set of nodes that lie on at least one directed
// cycle: members of SCCs of size >= 2 plus self-loop nodes.
func (g *Digraph) CyclicNodes() []int {
	var out []int
	for _, comp := range g.SCCs() {
		if len(comp) > 1 {
			out = append(out, comp...)
			continue
		}
		if g.HasEdge(comp[0], comp[0]) {
			out = append(out, comp[0])
		}
	}
	sort.Ints(out)
	return out
}

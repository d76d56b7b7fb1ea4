package graph

import "container/heap"

// Reachable reports whether dst is reachable from src (src reaches itself).
func (g *Digraph) Reachable(src, dst int) bool {
	n := len(g.succ)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return false
	}
	if src == dst {
		return true
	}
	seen := make([]bool, n)
	seen[src] = true
	queue := []int{src}
	for qi := 0; qi < len(queue); qi++ {
		for _, v := range g.succ[queue[qi]] {
			if v == dst {
				return true
			}
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}

// WeightFunc gives the cost of traversing edge u→v. Costs must be >= 0.
type WeightFunc func(u, v int) float64

// DijkstraPath returns a minimum-cost path from src to dst under w, or nil
// if unreachable. Ties are broken toward lower node IDs so the result is
// deterministic, which keeps synthesized routes reproducible.
func (g *Digraph) DijkstraPath(src, dst int, w WeightFunc) []int {
	n := len(g.succ)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	const inf = 1e300
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -2
	}
	dist[src] = 0
	parent[src] = -1
	pq := &nodeHeap{{node: src, prio: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, v := range g.succ[u] {
			if done[v] {
				continue
			}
			nd := dist[u] + w(u, v)
			if nd < dist[v] || (nd == dist[v] && parent[v] != -2 && u < parent[v]) {
				dist[v] = nd
				parent[v] = u
				heap.Push(pq, nodeItem{node: v, prio: nd})
			}
		}
	}
	if parent[dst] == -2 {
		return nil
	}
	return reconstructPath(parent, dst)
}

type nodeItem struct {
	node int
	prio float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].node < h[j].node
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

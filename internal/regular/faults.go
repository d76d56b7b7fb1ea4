package regular

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/graph"
	"github.com/nocdr/nocdr/internal/topology"
)

// SelectFaults picks n distinct links to fail, seeded and deterministic,
// such that the surviving switch graph stays strongly connected — every
// core can still reach every other, so the scenario tests rerouting, not
// partition handling. Candidates are visited in a splitmix64-shuffled
// order derived from seed; a candidate that would disconnect the network
// is skipped. It fails when fewer than n links can be removed safely.
//
// The returned IDs are in selection order; callers typically pass them
// straight to Topology.Fault.
func SelectFaults(g *Grid, n int, seed int64) ([]topology.LinkID, error) {
	top := g.Topology
	if n < 0 {
		return nil, fmt.Errorf("regular: negative fault count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if n >= top.NumLinks() {
		return nil, fmt.Errorf("regular: cannot fault %d of %d links", n, top.NumLinks())
	}
	order := shuffledLinks(top.NumLinks(), uint64(seed)*0x9e3779b97f4a7c15+0x1234567)
	faulted := make(map[topology.LinkID]bool, n)
	var picked []topology.LinkID
	for _, id := range order {
		if len(picked) == n {
			break
		}
		if top.Faulted(id) {
			continue // already down before selection started
		}
		faulted[id] = true
		if stronglyConnected(top, faulted) {
			picked = append(picked, id)
		} else {
			delete(faulted, id)
		}
	}
	if len(picked) < n {
		return nil, fmt.Errorf("regular: only %d of %d requested faults keep %s connected",
			len(picked), n, top.Name)
	}
	return picked, nil
}

// shuffledLinks returns 0..n-1 permuted by a seeded Fisher-Yates over a
// splitmix64 stream.
func shuffledLinks(n int, state uint64) []topology.LinkID {
	out := make([]topology.LinkID, n)
	for i := range out {
		out[i] = topology.LinkID(i)
	}
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// stronglyConnected reports whether the switch graph minus the faulted
// (and already-masked) links is strongly connected: one Tarjan pass
// finds a single component.
func stronglyConnected(top *topology.Topology, extraFaults map[topology.LinkID]bool) bool {
	n := top.NumSwitches()
	if n <= 1 {
		return true
	}
	sg := graph.New(n)
	sg.Ensure(n - 1)
	for _, l := range top.Links() {
		if top.Faulted(l.ID) || extraFaults[l.ID] {
			continue
		}
		sg.AddEdge(int(l.From), int(l.To))
	}
	return len(sg.SCCs()) == 1
}

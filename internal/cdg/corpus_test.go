package cdg

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// corpusFixture is one known-answer digraph of testdata/digraph_corpus.json.
type corpusFixture struct {
	Name       string   `json:"name"`
	Nodes      int      `json:"nodes"`
	Edges      [][2]int `json:"edges"`
	EdgeCount  int      `json:"edge_count"`
	CyclicSCCs int      `json:"cyclic_sccs"`
	DAG        bool     `json:"dag"`
	Girth      int      `json:"girth"`
	Cycle      []int    `json:"cycle"`
}

func loadCorpus(t *testing.T) []corpusFixture {
	t.Helper()
	data, err := os.ReadFile("../../testdata/digraph_corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Fixtures []corpusFixture `json:"fixtures"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Fixtures
}

// corpusDesign turns a fixture into a CDG input: link i (a chain of
// nodes+1 switches) carries vertex i as channel (i, 0), and flow k is the
// two-hop route of edge k, so the CDG is exactly the fixture's digraph.
func corpusDesign(f corpusFixture) (*topology.Topology, *route.Table) {
	top := topology.New(f.Name)
	top.AddSwitch("")
	for i := 0; i < f.Nodes; i++ {
		top.AddSwitch("")
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID(i+1))
	}
	tab := route.NewTable(len(f.Edges))
	for k, e := range f.Edges {
		tab.Set(k, corpusRoute(e))
	}
	return top, tab
}

func corpusRoute(e [2]int) []topology.Channel {
	return []topology.Channel{topology.Chan(topology.LinkID(e[0]), 0), topology.Chan(topology.LinkID(e[1]), 0)}
}

func corpusCycle(ids []int) []topology.Channel {
	if ids == nil {
		return nil
	}
	out := make([]topology.Channel, len(ids))
	for i, v := range ids {
		out[i] = topology.Chan(topology.LinkID(v), 0)
	}
	return out
}

// TestKnownAnswerCorpus pins Build and BuildIncremental on the shared
// known-answer corpus, plus an Incremental grown one edge at a time from
// an empty table with a query after every insertion, which exercises the
// girth bounds' insertion rule.
func TestKnownAnswerCorpus(t *testing.T) {
	for _, f := range loadCorpus(t) {
		t.Run(f.Name, func(t *testing.T) {
			top, tab := corpusDesign(f)
			want := corpusCycle(f.Cycle)
			c, err := Build(top, tab)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumChannels() != f.Nodes || c.NumDependencies() != f.EdgeCount {
				t.Errorf("Build: %d channels / %d deps, want %d / %d", c.NumChannels(), c.NumDependencies(), f.Nodes, f.EdgeCount)
			}
			if c.Acyclic() != f.DAG {
				t.Errorf("Build: Acyclic = %v, want %v", c.Acyclic(), f.DAG)
			}
			if got := c.SmallestCycle(); !reflect.DeepEqual(got, want) {
				t.Errorf("Build: SmallestCycle = %v, want %v", got, want)
			}

			m, err := BuildIncremental(top, tab)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumChannels() != f.Nodes || m.NumDependencies() != f.EdgeCount {
				t.Errorf("BuildIncremental: %d channels / %d deps, want %d / %d", m.NumChannels(), m.NumDependencies(), f.Nodes, f.EdgeCount)
			}
			if m.Acyclic() != f.DAG {
				t.Errorf("BuildIncremental: Acyclic = %v, want %v", m.Acyclic(), f.DAG)
			}
			if n := len(m.nontrivialSCCs()); n != f.CyclicSCCs {
				t.Errorf("BuildIncremental: %d cyclic SCCs, want %d", n, f.CyclicSCCs)
			}
			if got := m.SmallestCycle(); !reflect.DeepEqual(got, want) {
				t.Errorf("BuildIncremental: SmallestCycle = %v, want %v", got, want)
			}

			grown, err := BuildIncremental(top, route.NewTable(0))
			if err != nil {
				t.Fatal(err)
			}
			for k := len(f.Edges) - 1; k >= 0; k-- {
				if err := grown.ApplyReroute(Reroute{FlowID: k, New: corpusRoute(f.Edges[k])}); err != nil {
					t.Fatal(err)
				}
				grown.SmallestCycle()
			}
			if got := grown.SmallestCycle(); !reflect.DeepEqual(got, want) {
				t.Errorf("grown edge by edge: SmallestCycle = %v, want %v", got, want)
			}
		})
	}
}

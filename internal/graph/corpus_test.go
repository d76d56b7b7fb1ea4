package graph

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// corpusFixture is one known-answer digraph of testdata/digraph_corpus.json.
type corpusFixture struct {
	Name       string   `json:"name"`
	Nodes      int      `json:"nodes"`
	Edges      [][2]int `json:"edges"`
	EdgeCount  int      `json:"edge_count"`
	SCCs       int      `json:"sccs"`
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

// TestKnownAnswerCorpus pins the kernels on the shared known-answer
// corpus. Edges go in sorted by (from, to), as cdg.Build inserts them, so
// adjacency order is the canonical one the fixtures assume.
func TestKnownAnswerCorpus(t *testing.T) {
	for _, f := range loadCorpus(t) {
		t.Run(f.Name, func(t *testing.T) {
			edges := append([][2]int(nil), f.Edges...)
			sort.Slice(edges, func(i, j int) bool {
				if edges[i][0] != edges[j][0] {
					return edges[i][0] < edges[j][0]
				}
				return edges[i][1] < edges[j][1]
			})
			g := New(f.Nodes)
			if f.Nodes > 0 {
				g.Ensure(f.Nodes - 1)
			}
			for _, e := range edges {
				g.AddEdge(e[0], e[1])
			}
			if g.NumNodes() != f.Nodes || g.NumEdges() != f.EdgeCount {
				t.Errorf("%d nodes / %d edges, want %d / %d", g.NumNodes(), g.NumEdges(), f.Nodes, f.EdgeCount)
			}
			comps := g.SCCs()
			cyclic := 0
			for _, c := range comps {
				if len(c) > 1 || g.HasEdge(c[0], c[0]) {
					cyclic++
				}
			}
			if len(comps) != f.SCCs || cyclic != f.CyclicSCCs {
				t.Errorf("%d SCCs (%d cyclic), want %d (%d)", len(comps), cyclic, f.SCCs, f.CyclicSCCs)
			}
			if g.HasCycle() == f.DAG {
				t.Errorf("HasCycle = %v, want DAG %v", g.HasCycle(), f.DAG)
			}
			got := g.ShortestCycle()
			if !reflect.DeepEqual(got, f.Cycle) || len(got) != f.Girth {
				t.Errorf("ShortestCycle = %v, want %v (girth %d)", got, f.Cycle, f.Girth)
			}
		})
	}
}

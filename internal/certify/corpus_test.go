package certify

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// corpusFixture is the checker's own reading of one known-answer digraph
// of testdata/digraph_corpus.json.
type corpusFixture struct {
	Name      string   `json:"name"`
	Nodes     int      `json:"nodes"`
	Edges     [][2]int `json:"edges"`
	EdgeCount int      `json:"edge_count"`
	DAG       bool     `json:"dag"`
	Girth     int      `json:"girth"`
	Cycle     []int    `json:"cycle"`
}

// corpusBundle encodes a fixture as a design bundle: link i with one VC
// is vertex i, and each edge is a two-hop route.
func corpusBundle(f corpusFixture) []byte {
	links := make([]string, f.Nodes)
	for i := range links {
		links[i] = fmt.Sprintf(`{"id":%d,"vcs":1}`, i)
	}
	routes := make([]string, len(f.Edges))
	for k, e := range f.Edges {
		routes[k] = fmt.Sprintf(`{"flow":%d,"channels":[{"link":%d,"vc":0},{"link":%d,"vc":0}]}`, k, e[0], e[1])
	}
	return []byte(fmt.Sprintf(`{"topology":{"links":[%s]},"routes":{"routes":[%s]}}`,
		strings.Join(links, ","), strings.Join(routes, ",")))
}

// TestKnownAnswerCorpus pins the checker's kernels on the shared
// known-answer corpus: directly on a hand-built graph (the empty graph
// has no valid bundle), and through Check for every fixture with edges.
func TestKnownAnswerCorpus(t *testing.T) {
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
	for _, f := range doc.Fixtures {
		t.Run(f.Name, func(t *testing.T) {
			g := &cdgraph{index: make(map[Channel]int), adj: make([][]int, f.Nodes)}
			for i := 0; i < f.Nodes; i++ {
				g.index[Channel{Link: i}] = i
				g.channels = append(g.channels, Channel{Link: i})
			}
			for _, e := range f.Edges {
				if !g.hasEdge(e[0], e[1]) {
					g.adj[e[0]] = append(g.adj[e[0]], e[1])
					g.edges++
				}
			}
			for _, out := range g.adj {
				sortInts(out)
			}
			if _, ok := g.toposort(); ok != f.DAG {
				t.Errorf("toposort ok = %v, want DAG %v", ok, f.DAG)
			}
			if !f.DAG {
				if got := g.smallestCycle(); !reflect.DeepEqual(got, f.Cycle) {
					t.Errorf("smallestCycle = %v, want %v", got, f.Cycle)
				}
			}
			if len(f.Edges) == 0 {
				return
			}
			cert, err := Check(corpusBundle(f), "pre")
			if err != nil {
				t.Fatal(err)
			}
			if cert.Channels != f.Nodes || cert.Dependencies != f.EdgeCount || cert.Acyclic != f.DAG {
				t.Errorf("certificate %d channels / %d deps / acyclic %v, want %d / %d / %v",
					cert.Channels, cert.Dependencies, cert.Acyclic, f.Nodes, f.EdgeCount, f.DAG)
			}
			var want []Channel
			for _, v := range f.Cycle {
				want = append(want, Channel{Link: v})
			}
			if len(cert.Cycle) != f.Girth || !reflect.DeepEqual(cert.Cycle, want) {
				t.Errorf("certificate cycle %v, want %v", cert.Cycle, want)
			}
			if err := Validate(cert, corpusBundle(f)); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

package cdg

import (
	"bytes"
	"strings"
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// paperExample builds Figure 1's ring topology plus the four routes that
// produce the cyclic CDG of Figure 2.
func paperExample(t *testing.T) (*topology.Topology, *route.Table) {
	t.Helper()
	top := topology.New("figure1")
	for i := 0; i < 4; i++ {
		top.AddSwitch("")
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%4))
	}
	tab := route.NewTable(4)
	ch := func(ids ...int) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(topology.LinkID(id), 0)
		}
		return out
	}
	tab.Set(0, ch(0, 1, 2)) // F1 = {L1, L2, L3}
	tab.Set(1, ch(2, 3))    // F2 = {L3, L4}
	tab.Set(2, ch(3, 0))    // F3 = {L4, L1}
	tab.Set(3, ch(0, 1))    // F4 = {L1, L2}
	return top, tab
}

func TestBuildPaperCDG(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumChannels() != 4 {
		t.Errorf("NumChannels = %d, want 4", c.NumChannels())
	}
	// Figure 2's dependencies: L1→L2, L2→L3, L3→L4, L4→L1.
	wantDeps := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	if c.NumDependencies() != len(wantDeps) {
		t.Errorf("NumDependencies = %d, want %d", c.NumDependencies(), len(wantDeps))
	}
	for _, d := range wantDeps {
		from := topology.Chan(topology.LinkID(d[0]), 0)
		to := topology.Chan(topology.LinkID(d[1]), 0)
		if !c.HasDependency(from, to) {
			t.Errorf("missing dependency L%d→L%d", d[0]+1, d[1]+1)
		}
	}
	if c.Acyclic() {
		t.Error("paper CDG reported acyclic; Figure 2 has a cycle")
	}
}

func TestFlowsOnDependencies(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	l1 := topology.Chan(0, 0)
	l2 := topology.Chan(1, 0)
	// L1→L2 is created by F1 (flow 0) and F4 (flow 3).
	got := c.FlowsOn(l1, l2)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("FlowsOn(L1,L2) = %v, want [0 3]", got)
	}
	if c.FlowsOn(l2, l1) != nil {
		t.Error("FlowsOn on missing dependency returned flows")
	}
}

func TestSmallestCyclePaper(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	cyc := c.SmallestCycle()
	if len(cyc) != 4 {
		t.Fatalf("SmallestCycle length = %d, want 4", len(cyc))
	}
	// Must be the ring L1→L2→L3→L4 in order, starting at L1 (vertex 0).
	for i, ch := range cyc {
		if ch != topology.Chan(topology.LinkID(i), 0) {
			t.Errorf("cycle[%d] = %v, want L%d", i, ch, i+1)
		}
	}
}

func TestModifiedCDGAcyclic(t *testing.T) {
	// Figure 3: adding L1' and moving F3 onto it makes the CDG acyclic.
	top, tab := paperExample(t)
	vc, err := top.AddVC(0)
	if err != nil {
		t.Fatal(err)
	}
	tab.Set(2, []topology.Channel{topology.Chan(3, 0), topology.Chan(0, vc)})
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Acyclic() {
		t.Error("modified CDG still cyclic; Figure 3 is acyclic")
	}
	if c.NumChannels() != 5 {
		t.Errorf("NumChannels = %d, want 5", c.NumChannels())
	}
	if c.SmallestCycle() != nil {
		t.Error("SmallestCycle non-nil on acyclic CDG")
	}
}

func TestBuildRejectsUnprovisionedChannel(t *testing.T) {
	top, tab := paperExample(t)
	tab.Set(0, []topology.Channel{topology.Chan(0, 3)}) // VC 3 never added
	if _, err := Build(top, tab); err == nil {
		t.Error("unprovisioned channel accepted")
	}
}

func TestEmptyRoutesNoDeps(t *testing.T) {
	top, _ := paperExample(t)
	tab := route.NewTable(2)
	tab.Set(0, nil)
	tab.Set(1, []topology.Channel{topology.Chan(0, 0)}) // single hop: no dep
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDependencies() != 0 {
		t.Errorf("NumDependencies = %d, want 0", c.NumDependencies())
	}
	if !c.Acyclic() {
		t.Error("dependency-free CDG not acyclic")
	}
}

func TestVertexMapping(t *testing.T) {
	top, tab := paperExample(t)
	top.AddVC(2)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.NumChannels(); id++ {
		ch := c.Channel(id)
		back, ok := c.VertexOf(ch)
		if !ok || back != id {
			t.Errorf("vertex mapping not bijective at %d (%v)", id, ch)
		}
	}
	if _, ok := c.VertexOf(topology.Chan(0, 9)); ok {
		t.Error("VertexOf accepted unknown channel")
	}
}

func TestDependenciesSortedAndComplete(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	deps := c.Dependencies()
	if len(deps) != 4 {
		t.Fatalf("Dependencies() = %d entries", len(deps))
	}
	// First dependency must be L1→L2 with flows [0 3].
	if deps[0].From != topology.Chan(0, 0) || deps[0].To != topology.Chan(1, 0) {
		t.Errorf("deps[0] = %v→%v", deps[0].From, deps[0].To)
	}
	if len(deps[0].Flows) != 2 {
		t.Errorf("deps[0].Flows = %v", deps[0].Flows)
	}
}

func TestCyclicChannels(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	got := c.CyclicChannels()
	if len(got) != 4 {
		t.Errorf("CyclicChannels = %v, want all 4", got)
	}
}

func TestStringAndDOT(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.String(); !strings.Contains(s, "cyclic") || !strings.Contains(s, "4 channels") {
		t.Errorf("String = %q", s)
	}
	var buf bytes.Buffer
	if err := c.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{"digraph cdg", `label="L1"`, "F1,F4", "peripheries=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	top, tab := paperExample(t)
	a, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Dependencies(), b.Dependencies()
	if len(da) != len(db) {
		t.Fatal("nondeterministic dependency count")
	}
	for i := range da {
		if da[i].From != db[i].From || da[i].To != db[i].To {
			t.Fatalf("dependency %d differs", i)
		}
	}
}

func TestSmallestCycleThrough(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	cyc := c.SmallestCycleThrough(topology.Chan(1, 0))
	if len(cyc) != 4 || cyc[0] != topology.Chan(1, 0) {
		t.Errorf("SmallestCycleThrough(L2) = %v, want 4-cycle starting at L2", cyc)
	}
	if got := c.SmallestCycleThrough(topology.Chan(0, 9)); got != nil {
		t.Error("unknown channel returned a cycle")
	}
	// After breaking the cycle (Figure 3: only F3 moves onto L1'), no
	// channel lies on a cycle any more.
	top2, tab2 := paperExample(t)
	vc, _ := top2.AddVC(0)
	tab2.Set(2, []topology.Channel{topology.Chan(3, 0), topology.Chan(0, vc)})
	c2, err := Build(top2, tab2)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Acyclic() {
		t.Fatal("Figure 3 configuration not acyclic")
	}
	if got := c2.SmallestCycleThrough(topology.Chan(1, 0)); got != nil {
		t.Errorf("acyclic CDG returned cycle %v", got)
	}
}

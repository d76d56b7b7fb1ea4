package cdg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() int {
	b.pos++
	if b.pos > len(b.data) {
		return 0
	}
	return int(b.data[b.pos-1])
}

func (b *fuzzBytes) done() bool { return b.pos >= len(b.data) }

// randomPath draws a route of 1–4 distinct channels of top.
func randomPath(b *fuzzBytes, top *topology.Topology) []topology.Channel {
	chans := top.Channels()
	var out []topology.Channel
	for n := 1 + b.next()%4; len(out) < n; n-- {
		ch := chans[b.next()%len(chans)]
		dup := false
		for _, c := range out {
			dup = dup || c == ch
		}
		if !dup {
			out = append(out, ch)
		}
	}
	return out
}

// checkRerouteSequence decodes data into a small design and a sequence
// of reroutes, and after every step requires the Incremental CDG's
// SmallestCycle or FirstFound query, when the step asks for one, to equal
// a CDG rebuilt from scratch. Steps move up to three flows onto fresh
// paths over existing channels (inserting edges between existing
// vertices, as a reconfiguration does), add a chord across the current
// smallest cycle, break that cycle the way Algorithm 1 does, split some
// of a channel's flows onto a new VC, drop a flow, and take or restore a
// Snapshot.
func checkRerouteSequence(t *testing.T, data []byte) {
	b := &fuzzBytes{data: data}
	top := topology.New("fuzz")
	top.AddSwitch("")
	nLinks := 2 + b.next()%6
	for i := 0; i < nLinks; i++ {
		top.AddSwitch("")
		l := top.MustAddLink(topology.SwitchID(i), topology.SwitchID(i+1))
		for extra := b.next() % 3; extra > 0; extra-- {
			if _, err := top.AddVC(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	nFlows := 2 + b.next()%24
	tab := route.NewTable(nFlows)
	for f := 0; f < nFlows; f++ {
		tab.Set(f, randomPath(b, top))
	}
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	reroute := func(f int, next []topology.Channel) {
		if err := m.ApplyReroute(Reroute{FlowID: f, Old: tab.Route(f).Channels, New: next}); err != nil {
			t.Fatalf("flow %d: %v", f, err)
		}
		tab.Set(f, next)
	}
	// moveFlows puts a new VC of ch's link in place of ch on every flow
	// whose route passes ch right after from (any predecessor when from
	// is nil) and whose bit in mask is set.
	moveFlows := func(from *topology.Channel, ch topology.Channel, mask int) {
		vc, err := top.AddVC(ch.Link)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < nFlows; f++ {
			old := tab.Route(f).Channels
			for i, c := range old {
				if c != ch || mask>>(f%8)&1 == 0 || from != nil && (i == 0 || old[i-1] != *from) {
					continue
				}
				next := append([]topology.Channel(nil), old...)
				next[i] = topology.Chan(ch.Link, vc)
				reroute(f, next)
			}
		}
	}
	var snap *Snapshot
	var snapTab *route.Table
	for step := 0; step < 96 && !b.done(); step++ {
		op := b.next()
		switch op % 8 {
		case 0:
			// Up to three flows onto fresh paths at once, like a
			// reconfiguration delta: their edges may need a cover larger
			// than maxCover, which restarts the bounds.
			for n := 1 + b.next()%3; n > 0; n-- {
				reroute(b.next()%nFlows, randomPath(b, top))
			}
		case 1, 2:
			// A chord back across the shortest cycle through some channel
			// closes a shorter one through vertices whose bounds may
			// already be exact; a random lead-in of up to two channels
			// makes some chords need more than one cover vertex.
			c, err := Build(top, tab)
			if err != nil {
				t.Fatal(err)
			}
			chans := top.Channels()
			cycle := c.SmallestCycleThrough(chans[b.next()%len(chans)])
			i, j := b.next()%(len(cycle)+1), b.next()%(len(cycle)+1)
			if i == j || i == len(cycle) || j == len(cycle) {
				break
			}
			var path []topology.Channel
			for _, ch := range randomPath(b, top) {
				if len(path) < 2 && ch != cycle[i] && ch != cycle[j] {
					path = append(path, ch)
				}
			}
			reroute(b.next()%nFlows, append(path, cycle[j], cycle[i]))
		case 3:
			chans := top.Channels()
			moveFlows(nil, chans[b.next()%len(chans)], b.next())
		case 4, 7:
			if cycle := m.SmallestCycle(); len(cycle) > 0 {
				e := b.next() % len(cycle)
				moveFlows(&cycle[e], cycle[(e+1)%len(cycle)], 0xff)
			}
		case 5:
			reroute(b.next()%nFlows, nil)
		case 6:
			if snap == nil || b.next()%2 == 0 {
				snap, snapTab = m.Snapshot(), tab.Clone()
			} else {
				m.Restore(snap)
				tab = snapTab.Clone()
			}
		}
		// Bits 3–4 pick the query: none (changes pile up until a later
		// refresh), FirstFound, or SmallestCycle.
		query := op >> 3 & 3
		if query == 0 {
			continue
		}
		c, err := Build(top, tab)
		if err != nil {
			t.Fatal(err)
		}
		if query == 1 {
			var want []topology.Channel
			if cyclic := c.CyclicChannels(); len(cyclic) > 0 {
				want = c.SmallestCycleThrough(cyclic[0])
			}
			if got := m.SmallestCycleThroughFirstCyclic(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: SmallestCycleThroughFirstCyclic = %v, rebuild %v", step, got, want)
			}
		} else if got, want := m.SmallestCycle(), c.SmallestCycle(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: SmallestCycle = %v, rebuild %v", step, got, want)
		}
		// The bound invariant itself, which a query's answer exposes only
		// when a stale bound hides the winner.
		for v, ch := range m.chans {
			if g := len(c.SmallestCycleThrough(ch)); g > 0 && m.lb[v] > g {
				t.Fatalf("step %d: lb[%v] = %d above its girth %d", step, ch, m.lb[v], g)
			}
		}
	}
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.SmallestCycle(), c.SmallestCycle(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final: SmallestCycle = %v, rebuild %v", got, want)
	}
}

// FuzzIncrementalSmallestCycle checks the girth-bound search against a
// full rebuild over arbitrary reroute sequences.
func FuzzIncrementalSmallestCycle(f *testing.F) {
	f.Add([]byte{4, 1, 2, 0, 1, 9, 3, 2, 7, 1, 3, 5, 2, 8, 0, 2, 1, 4, 2, 5, 5, 0, 3, 2, 9})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 11, 3, 1, 2, 3, 3, 4, 5, 6, 2, 2, 2, 2, 2, 4, 0, 1, 2, 3, 4, 4, 5})
	f.Fuzz(checkRerouteSequence)
}

// TestIncrementalSmallestCycleRandom runs the fuzz body over a fixed
// batch of pseudo-random inputs so every test run covers the insertion,
// deletion, reset and snapshot paths of the girth bounds.
func TestIncrementalSmallestCycleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 1000; i++ {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkRerouteSequence(t, data) })
	}
}

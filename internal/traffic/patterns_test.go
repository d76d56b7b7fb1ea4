package traffic

import "testing"

func TestTranspose(t *testing.T) {
	g, err := Transpose(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCores() != 16 {
		t.Fatalf("cores = %d, want 16", g.NumCores())
	}
	// 16 cores, 4 diagonal fixed points silent → 12 flows.
	if g.NumFlows() != 12 {
		t.Fatalf("flows = %d, want 12", g.NumFlows())
	}
	// (r,c) → (c,r): core 1 = (0,1) sends to core 4 = (1,0).
	found := false
	for _, f := range g.Flows() {
		if f.Src == 1 && f.Dst == 4 {
			found = true
		}
		r, c := int(f.Src)/4, int(f.Src)%4
		if int(f.Dst) != c*4+r {
			t.Errorf("flow %d→%d is not a transpose pair", f.Src, f.Dst)
		}
	}
	if !found {
		t.Error("missing transpose flow 1→4")
	}

	for _, bad := range []int{0, 3, 5, 12} {
		if _, err := Transpose(bad); err == nil {
			t.Errorf("Transpose(%d) accepted", bad)
		}
	}
}

func TestBitReversal(t *testing.T) {
	g, err := BitReversal(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8 cores, fixed points 0b000, 0b010, 0b101, 0b111 silent → 4 flows.
	if g.NumFlows() != 4 {
		t.Fatalf("flows = %d, want 4", g.NumFlows())
	}
	// 0b001 → 0b100.
	ok := false
	for _, f := range g.Flows() {
		if f.Src == 1 && f.Dst == 4 {
			ok = true
		}
	}
	if !ok {
		t.Error("missing bit-reversal flow 1→4")
	}
	for _, bad := range []int{0, 2, 6, 12} {
		if _, err := BitReversal(bad); err == nil {
			t.Errorf("BitReversal(%d) accepted", bad)
		}
	}
}

func TestHotspot(t *testing.T) {
	g, err := Hotspot(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 14 non-hotspot cores, request + reply each.
	if g.NumFlows() != 28 {
		t.Fatalf("flows = %d, want 28", g.NumFlows())
	}
	// Hotspots absorb far more bandwidth than they emit per flow.
	var toHot, fromHot float64
	for _, f := range g.Flows() {
		if f.Dst < 2 {
			toHot += f.Bandwidth
		}
		if f.Src < 2 {
			fromHot += f.Bandwidth
		}
	}
	if toHot <= fromHot {
		t.Errorf("hotspot inbound %v should exceed outbound %v", toHot, fromHot)
	}
	for _, bad := range [][2]int{{2, 1}, {8, 0}, {8, 8}} {
		if _, err := Hotspot(bad[0], bad[1]); err == nil {
			t.Errorf("Hotspot(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestAllToAll(t *testing.T) {
	g, err := AllToAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumFlows() != 12 {
		t.Fatalf("flows = %d, want 12", g.NumFlows())
	}
	// Source-major, destinations ascending, no self-flows.
	if f := g.Flows()[3]; f.Src != 1 || f.Dst != 0 {
		t.Errorf("flow 3 = %d→%d, want 1→0", f.Src, f.Dst)
	}
	for _, bad := range []int{0, 1} {
		if _, err := AllToAll(bad); err == nil {
			t.Errorf("AllToAll(%d) accepted", bad)
		}
	}
}

func TestPatternsAreDeterministic(t *testing.T) {
	a, _ := Transpose(16)
	b, _ := Transpose(16)
	if a.NumFlows() != b.NumFlows() {
		t.Fatal("transpose not deterministic")
	}
	for i, f := range a.Flows() {
		if b.Flows()[i] != f {
			t.Fatalf("transpose flow %d differs", i)
		}
	}
}

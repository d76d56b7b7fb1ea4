package traffic

import (
	"fmt"
	"math/bits"
)

// Synthetic adversarial traffic patterns. The paper evaluates on six SoC
// benchmarks whose communication graphs are application-shaped; these
// generators supply the opposite end of the workload spectrum — the
// classic permutation and hotspot patterns the interconnect literature
// uses to stress routing functions. All are deterministic (no RNG), so a
// sweep cell is reproducible from its spec alone.

// Transpose builds the matrix-transpose permutation on n = k×k cores:
// core (r, c) of the k×k grid sends one flow to core (c, r). Diagonal
// cores (r == c) are their own targets and stay silent. On meshes with
// dimension-ordered routing this pattern concentrates turns along the
// diagonal; it is the canonical adversary for XY routing.
func Transpose(n int) (*Graph, error) {
	k := isqrt(n)
	if k*k != n || n < 4 {
		return nil, fmt.Errorf("traffic: transpose needs a square core count >= 4, got %d", n)
	}
	g := NewGraph(fmt.Sprintf("transpose_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if r == c {
				continue
			}
			g.MustAddFlow(CoreID(r*k+c), CoreID(c*k+r), 100)
		}
	}
	return g, nil
}

// BitReversal builds the bit-reversal permutation on n cores (n a power
// of two): core i sends one flow to the core whose index is i's bit
// pattern reversed within log2(n) bits. Fixed points stay silent. Bit
// reversal maximizes average hop distance under dimension-ordered
// routing and is the standard worst-case permutation for FFT-style
// traffic.
func BitReversal(n int) (*Graph, error) {
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: bit-reversal needs a power-of-two core count >= 4, got %d", n)
	}
	w := bits.Len(uint(n)) - 1
	g := NewGraph(fmt.Sprintf("bitrev_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - w))
		if i == j {
			continue
		}
		g.MustAddFlow(CoreID(i), CoreID(j), 100)
	}
	return g, nil
}

// Hotspot builds an n-core graph where cores 0..h-1 are memory-style
// hotspots: every other core sends a heavy request flow to its hotspot
// (i mod h) and receives a lighter reply flow back. The shared targets
// concentrate load the way D35_bot's bottleneck does, but with a
// caller-controlled core count and hotspot fan-in.
func Hotspot(n, h int) (*Graph, error) {
	if n < 3 || h < 1 || h >= n {
		return nil, fmt.Errorf("traffic: hotspot needs 1 <= hotspots < cores and cores >= 3, got %d cores, %d hotspots", n, h)
	}
	g := NewGraph(fmt.Sprintf("hotspot_%dx%d", n, h))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for i := h; i < n; i++ {
		hot := CoreID(i % h)
		g.MustAddFlow(CoreID(i), hot, 128)
		g.MustAddFlow(hot, CoreID(i), 32)
	}
	return g, nil
}

// AllToAll builds the complete pattern on n cores: every core sends one
// flow to every other core, n(n-1) flows in source-major order. It is
// the densest single-class workload, and the one that gives turn-model
// route sets their largest union CDG.
func AllToAll(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: all-to-all needs a core count >= 2, got %d", n)
	}
	g := NewGraph(fmt.Sprintf("all-to-all_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				g.MustAddFlow(CoreID(s), CoreID(d), 100)
			}
		}
	}
	return g, nil
}

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	if n < 2 {
		return 0
	}
	r := int(bits.Len(uint(n))+1) / 2
	x := 1 << r
	for {
		y := (x + n/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

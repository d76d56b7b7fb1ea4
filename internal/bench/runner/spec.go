package runner

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Spec is a parsed benchmark spec: the one grammar behind
// Grid.Benchmarks and `nocexp design -preset` (see Grid.Benchmarks for
// the forms). ParseSpec range-checks every number against what the
// traffic and topology generators accept, so validating a spec never
// builds it, and building a parsed spec cannot fail.
type Spec struct {
	// Preset marks a mesh:/torus: spec, which carries its own topology
	// (Grid) and so ignores the switch-count axis.
	Preset bool
	// Grid is the preset's regular topology (zero unless Preset).
	Grid route.GridSpec

	text   string // the spec as written; it names seeded rand workloads
	kind   string // "paper", "rand", "transpose", "bitrev", "hotspot", "uniform" or "all-to-all"
	cores  int    // workload core count (0 for a paper benchmark)
	degree int    // rand: fan-out; hotspot: hotspot count
}

// presetPatterns are the traffic patterns a mesh:/torus: preset runs.
var presetPatterns = []string{"transpose", "bitrev", "hotspot", "uniform", "all-to-all"}

// ParseSpec parses and range-checks one benchmark spec.
func ParseSpec(text string) (Spec, error) {
	s, err := parseSpec(text)
	if err == nil {
		err = s.check()
	}
	if err != nil {
		return Spec{}, err
	}
	return s, nil
}

// parseSpec reads a spec's shape and numbers without range-checking
// them. A spec of no known shape parses as a paper benchmark name.
func parseSpec(text string) (Spec, error) {
	s := Spec{text: text, kind: "paper"}
	kind, args, ok := strings.Cut(text, ":")
	if !ok {
		return s, nil
	}
	var err error
	switch kind {
	case "rand", "hotspot":
		var hasDegree bool
		s.kind = kind
		s.cores, s.degree, hasDegree, err = s.dims(args)
		if err == nil && !hasDegree {
			if kind == "rand" {
				return Spec{}, s.errorf("want rand:<cores>x<fanout>")
			}
			s.degree = max(1, s.cores/8)
		}
	case "transpose", "bitrev":
		s.kind = kind
		s.cores, err = s.number(args)
	case "mesh", "torus":
		dims, pattern, hasPattern := strings.Cut(args, ":")
		cols, rows, hasRows, derr := s.dims(dims)
		if derr != nil {
			return Spec{}, derr
		}
		if !hasRows {
			rows = cols
		}
		if !hasPattern {
			pattern = "uniform"
		} else if !slices.Contains(presetPatterns, pattern) {
			return Spec{}, s.errorf("want %s:<cols>[x<rows>][:<pattern>] with <pattern> one of %s", kind, strings.Join(presetPatterns, ", "))
		}
		if rows > 0 && cols > math.MaxInt/rows {
			return Spec{}, s.errorf("%dx%d grid out of range", cols, rows)
		}
		s.Preset, s.Grid = true, route.GridSpec{Cols: cols, Rows: rows, Wrap: kind == "torus"}
		s.kind, s.cores, s.degree = pattern, cols*rows, max(1, cols*rows/8)
	}
	if err != nil {
		return Spec{}, err
	}
	return s, nil
}

// dims parses "<a>" or "<a>x<b>"; hasB reports the second number.
func (s Spec) dims(args string) (a, b int, hasB bool, err error) {
	first, second, hasB := strings.Cut(args, "x")
	if a, err = s.number(first); err == nil && hasB {
		b, err = s.number(second)
	}
	return a, b, hasB, err
}

// number parses one non-empty decimal digit run of the spec. A number
// too large for int rejects the spec by name: clamping it to MaxInt
// would size a workload or topology past any memory.
func (s Spec) number(digits string) (int, error) {
	if digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, s.errorf("want a number, got %q", digits)
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0, s.errorf("number %s out of range", digits)
	}
	return n, nil
}

// errorf reports a malformed or out-of-range spec.
func (s Spec) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: benchmark spec %q: %s", nocerr.ErrInvalidInput, s.text, fmt.Sprintf(format, args...))
}

// check applies the range rules: a spec passes exactly when its
// workload and grid generators succeed. Presets add one rule of their
// own, a square grid for transpose, so that the permutation is the
// grid's own transpose.
func (s Spec) check() error {
	if s.kind == "paper" {
		if !slices.Contains(traffic.BenchmarkNames(), s.text) {
			return fmt.Errorf("runner: unknown benchmark %q (valid: %v, or a rand:, transpose:, bitrev:, hotspot:, mesh: or torus: spec): %w",
				s.text, traffic.BenchmarkNames(), nocerr.ErrNotFound)
		}
		return nil
	}
	n, k := s.cores, s.degree
	var need string
	switch {
	case s.Preset && (s.Grid.Cols < 2 || s.Grid.Rows < 1):
		need = "a grid of at least 2 columns and 1 row"
	case s.Preset && s.kind == "transpose" && s.Grid.Cols != s.Grid.Rows:
		need = "a square grid for transpose"
	case s.kind == "rand" && !(n >= 2 && k >= 1 && k < n):
		need = "2 ≤ cores, 1 ≤ fanout < cores"
	case s.kind == "transpose" && !(n >= 4 && isSquare(n)):
		need = "a square core count ≥ 4"
	case s.kind == "bitrev" && !(n >= 4 && n&(n-1) == 0):
		need = "a power-of-two core count ≥ 4"
	case s.kind == "hotspot" && !(n >= 3 && k >= 1 && k < n):
		need = "3 ≤ cores, 1 ≤ hotspots < cores"
	}
	if need != "" {
		return s.errorf("out of range (need %s)", need)
	}
	return nil
}

// isSquare reports whether n is a perfect square.
func isSquare(n int) bool {
	k := int(math.Sqrt(float64(n))) // ≤ 3037000499, so k*k cannot overflow
	for k*k > n {
		k--
	}
	return k*k == n || (k+1)*(k+1) == n
}

// seededDesign reports whether the spec's design (not just its
// injection process) varies with the seed: rand specs synthesize a
// seeded traffic graph, and a faulted preset masks a seeded link
// selection.
func (s Spec) seededDesign(faults int) bool {
	if s.Preset {
		return faults > 0
	}
	return s.kind == "rand"
}

// Workload builds the spec's traffic graph; seed instantiates rand
// specs and is ignored by the deterministic ones.
func (s Spec) Workload(seed int64) (*traffic.Graph, error) {
	n := s.cores
	switch s.kind {
	case "rand":
		return traffic.RandomKOut(fmt.Sprintf("%s#%d", s.text, seed), n, s.degree, seed), nil
	case "transpose":
		return traffic.Transpose(n)
	case "bitrev":
		return traffic.BitReversal(n)
	case "hotspot":
		return traffic.Hotspot(n, s.degree)
	case "uniform":
		return regular.UniformTraffic(n, n/2, 100)
	case "all-to-all":
		return traffic.AllToAll(n)
	}
	return traffic.ByName(s.text)
}

package runner

import (
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/regular"
)

// TestGridValidateIsParsing is the adversarial validation table: every
// row is sized so that building its workload or grid takes seconds, and
// must still be decided by Grid.Validate within one.
func TestGridValidateIsParsing(t *testing.T) {
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"torus:1200x600:transpose", false}, // not square
		{"hotspot:3000000", true},
		{"bitrev:4194304", true},
		{"mesh:700x700:uniform", true},
	} {
		start := time.Now()
		err := (Grid{Benchmarks: []string{c.spec}, SwitchCounts: []int{8}}).Validate()
		if d := time.Since(start); d >= time.Second {
			t.Errorf("Validate(%s) took %v, want < 1s", c.spec, d)
		}
		if (err == nil) != c.ok {
			t.Errorf("Validate(%s) = %v, want accepted=%v", c.spec, err, c.ok)
		}
	}
}

// TestParseSpecForms pins the numbers each form parses to, including
// the preset defaults (uniform pattern, square grid) and the default
// hotspot count, cores/8.
func TestParseSpecForms(t *testing.T) {
	for text, want := range map[string]Spec{
		"mesh:4":              {Preset: true, kind: "uniform", cores: 16, degree: 2},
		"torus:8x4:bitrev":    {Preset: true, kind: "bitrev", cores: 32, degree: 4},
		"mesh:3x3:all-to-all": {Preset: true, kind: "all-to-all", cores: 9, degree: 1},
		"mesh:8x8:hotspot":    {Preset: true, kind: "hotspot", cores: 64, degree: 8},
		"hotspot:24":          {kind: "hotspot", cores: 24, degree: 3},
		"rand:96x4":           {kind: "rand", cores: 96, degree: 4},
		"D36_8":               {kind: "paper"},
	} {
		got, err := ParseSpec(text)
		if err != nil {
			t.Errorf("%s: %v", text, err)
			continue
		}
		if got.Preset != want.Preset || got.kind != want.kind || got.cores != want.cores || got.degree != want.degree {
			t.Errorf("%s parsed to %+v, want %+v", text, got, want)
		}
	}
	if s, _ := ParseSpec("torus:8x4:bitrev"); s.Grid.Cols != 8 || s.Grid.Rows != 4 || !s.Grid.Wrap {
		t.Errorf("torus:8x4:bitrev grid %+v, want an 8x4 torus", s.Grid)
	}
}

// FuzzSpecValidate pins the parse-time range rules to the generators
// they stand in for: for every spec of at most 256 cores, Grid.Validate
// accepts exactly when the spec's workload and grid build.
func FuzzSpecValidate(f *testing.F) {
	for _, s := range []string{
		// TestPatternSpecs
		"transpose:16", "bitrev:32", "hotspot:24x3", "hotspot:24", "transpose:15", "transpose:16x4",
		"bitrev:12", "bitrev:8x2", "hotspot:2x2", "mesh:1x1:uniform", "torus:4x4:nope",
		"mesh:99999999999999999999x1", "torus:4x99999999999999999999:transpose", "transpose:99999999999999999999",
		"bitrev:99999999999999999999", "hotspot:99999999999999999999", "hotspot:24x99999999999999999999",
		"mesh:4x4:", "mesh:x4", "mesh:+4", "rand:8", "rand:8x3x1", "hotspot:24x", "ring:4x4", "bitrev:٤",
		"mesh:4294967296x4294967296", "mesh:4x4:transpose", "torus:8x4:bitrev", "mesh:3x3:all-to-all",
		// TestGridValidateRandIsParsing
		"rand:100000x6", "rand:2x1", "rand:1x1", "rand:5x0", "rand:5x5",
		"rand:99999999999999999999x6", "rand:8x99999999999999999999",
		// the remaining forms
		"D26_media", "mesh:4", "torus:3x2:all-to-all", "mesh:2x8:transpose", "mesh:2x1:hotspot", "mesh:16x16:all-to-all",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		err := (Grid{Benchmarks: []string{text}, SwitchCounts: []int{1}}).Validate()
		s, perr := parseSpec(text)
		if perr != nil {
			if err == nil {
				t.Fatalf("Validate accepted %q, which does not parse: %v", text, perr)
			}
			return
		}
		if s.cores > 256 {
			return
		}
		if built := builds(s); (err == nil) != built {
			t.Fatalf("Validate(%q) = %v, but building it succeeds=%v", text, err, built)
		}
	})
}

// builds reports whether s's workload and grid generators succeed on its
// unchecked numbers. The one rule no generator holds is the preset's own
// square-grid rule for transpose.
func builds(s Spec) (ok bool) {
	defer func() {
		if recover() != nil { // traffic.RandomKOut panics out of range
			ok = false
		}
	}()
	if _, err := s.Workload(0); err != nil {
		return false
	}
	if s.Preset {
		if _, err := regular.NewGrid(s.Grid.Cols, s.Grid.Rows, s.Grid.Wrap); err != nil {
			return false
		}
		return s.kind != "transpose" || s.Grid.Cols == s.Grid.Rows
	}
	return true
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nocdr/nocdr/internal/reconfig"
)

// writeTestDesign runs `nocexp design` into a temp file and returns the
// path.
func writeTestDesign(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.json")
	full := append([]string{"-out", path}, args...)
	if err := runDesign(context.Background(), full, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDesignWritesVerifiableBundle(t *testing.T) {
	// "mesh:4" is the sweep grammar's shorthand for mesh:4x4:uniform.
	for preset, flows := range map[string]int{"mesh:4x4:all-to-all": 240, "mesh:4": 16} {
		path := writeTestDesign(t, "-preset", preset, "-routing", "odd-even")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := reconfig.ReadDesign(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("%s: written design invalid: %v", preset, err)
		}
		if d.Grid.Cols != 4 || d.Grid.Rows != 4 || d.Grid.Wrap {
			t.Fatalf("%s: grid %+v, want 4x4 mesh", preset, d.Grid)
		}
		if got := d.Traffic.NumFlows(); got != flows {
			t.Errorf("%s: %d flows, want %d", preset, got, flows)
		}
	}
}

// TestDesignBundleKnownAnswers pins the bytes of `nocexp design` bundles
// to those the tool wrote before its -preset flag took the sweep spec
// grammar: the grammar and the traffic generators it reaches must not
// move a design. The uniform row is the former "-traffic stride" bundle,
// whose traffic graph carried another name.
func TestDesignBundleKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		args    []string
		oldName string // the traffic graph's name in the pinned bundle
		want    string
	}{
		{[]string{"-preset", "mesh:4x4:all-to-all", "-routing", "odd-even"}, "", "343c7cee1c2a8bdf65704a7efbb2e9834908ddddd9ac15c7b711ee745abbe3ab"},
		{[]string{"-preset", "mesh:4x4:transpose", "-routing", "dor"}, "", "72477c2372fa6efcf3def992153155368ac8178bc76a9731712f8840fbb9aa87"},
		{[]string{"-preset", "torus:4x4:all-to-all", "-routing", "west-first"}, "", "9b25c1e3fb65ca605f7ddecfa1385a964b6fcb951d000525c9d4bfce827ea606"},
		{[]string{"-preset", "mesh:4x4:uniform", "-routing", "odd-even"}, "stride_16", "2fee6155075e7b9459917bfc4eeed4115662a8b28db3f093b2cdb3d68f56a4a7"},
	} {
		data, err := os.ReadFile(writeTestDesign(t, c.args...))
		if err != nil {
			t.Fatal(err)
		}
		if c.oldName != "" {
			const name = `"name": "uniform_n16_s8"`
			if !bytes.Contains(data, []byte(name)) {
				t.Fatalf("design %v: traffic graph not named uniform_n16_s8", c.args)
			}
			data = bytes.Replace(data, []byte(name), []byte(`"name": "`+c.oldName+`"`), 1)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("design %v: sha256 %s, want %s", c.args, got, c.want)
		}
	}
}

func TestDesignRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "ring:4x4"},
		{"-preset", "mesh:1x4"},
		{"-preset", "mesh:4x4junk"},
		{"-preset", "torus:3x3x9"},
		{"-preset", "transpose:16"},
		{"-routing", "zig-zag"},
		{"-preset", "mesh:4x4:lumpy"},
		{"-traffic", "all-to-all"},
		{"-preset", "mesh:4x4", "extra-arg"},
	} {
		if err := runDesign(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestReconfigureSeededFaults is the CLI acceptance path the smoke CI
// drives: seeded faults applied one event at a time, the in-tool
// verification gate green, the differential baseline reported, and both
// artifacts written and re-parseable.
func TestReconfigureSeededFaults(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4:all-to-all", "-routing", "odd-even")
	dir := t.TempDir()
	evolved := filepath.Join(dir, "evolved.json")
	deltas := filepath.Join(dir, "deltas.json")
	var out bytes.Buffer
	err := runReconfigure(context.Background(), []string{
		"-design", design, "-fault-count", "2", "-fault-seed", "1",
		"-differential", "-quiet", "-skip-sim", "-out", evolved, "-delta", deltas,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vcs_added=", "differential:", "2 events committed", "design valid (acyclic)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	f, err := os.Open(evolved)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := reconfig.ReadDesign(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("evolved design invalid: %v", err)
	}
	if got := len(d.Topology.FaultedLinks()); got != 2 {
		t.Fatalf("evolved design has %d faults, want 2", got)
	}
	data, err := os.ReadFile(deltas)
	if err != nil {
		t.Fatal(err)
	}
	var ds []json.RawMessage
	if err := json.Unmarshal(data, &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("delta report has %d entries, want 2", len(ds))
	}
	for _, raw := range ds {
		if _, err := reconfig.ReadDelta(bytes.NewReader(raw)); err != nil {
			t.Fatalf("delta entry does not re-parse: %v", err)
		}
	}
}

// TestReconfigureStormTerminates drives the storm mode to its clean stop
// and checks the evolved design re-verifies.
func TestReconfigureStormTerminates(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4:all-to-all", "-routing", "west-first")
	var out bytes.Buffer
	err := runReconfigure(context.Background(), []string{
		"-design", design, "-storm", "-quiet", "-skip-sim",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "design valid (acyclic)") {
		t.Fatalf("storm output missing the verification verdict:\n%s", out.String())
	}
}

func TestReconfigureExplicitFaultAndDowntime(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4:all-to-all", "-routing", "odd-even")
	// Pick the fault the seed-0 selector would: deterministic and safe.
	var probe bytes.Buffer
	if err := runReconfigure(context.Background(), []string{
		"-design", design, "-fault-count", "1", "-fault-seed", "0", "-quiet", "-skip-sim",
	}, &probe, io.Discard); err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(probe.String())
	if len(fields) < 2 || fields[0] != "fault" {
		t.Fatalf("cannot recover fault ID from %q", probe.String())
	}
	id := strings.TrimSuffix(fields[1], ":")
	var out bytes.Buffer
	err := runReconfigure(context.Background(), []string{
		"-design", design, "-fault", id, "-quiet", "-sim-cycles", "20000",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "downtime") {
		t.Fatalf("downtime estimate missing from output:\n%s", out.String())
	}
}

func TestReconfigureRejectsBadFlags(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "odd-even")
	for _, args := range [][]string{
		{},                  // no -design
		{"-design", design}, // no fault mode
		{"-design", design, "-fault", "1", "-storm"}, // two modes
		{"-design", design, "-fault", "nope"},        // unparseable
		{"-design", design, "-fault", "99999"},       // out of range: job fails
		{"-design", filepath.Join(t.TempDir(), "missing.json"), "-fault", "1"},
	} {
		if err := runReconfigure(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

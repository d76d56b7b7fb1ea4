package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/reconfig"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
)

// runDesign implements `nocexp design`: build a removed design bundle on
// a regular grid and write it to -out, the artifact `nocexp reconfigure`
// and /v1/reconfigure evolve.
func runDesign(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("design", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "mesh:8x8",
		"grid preset with its traffic pattern, the sweep grammar's mesh:<cols>[x<rows>][:<pattern>] or torus:…; pattern uniform (core i → i+n/2, default), transpose (square grid), bitrev, hotspot, all-to-all")
	routing := fs.String("routing", "odd-even",
		"turn-model routing function: "+strings.Join(route.TurnModelNames(), ", "))
	maxPaths := fs.Int("max-paths", 0, "max candidate paths per flow (0 = library default)")
	vcLimit := fs.Int("vc-limit", 0, "abort removal past this many added VCs (0 = unlimited)")
	out := fs.String("out", "design.json", "write the design bundle here (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	spec, err := runner.ParseSpec(*preset)
	if err != nil {
		return err
	}
	if !spec.Preset {
		return fmt.Errorf("-preset %q: want a mesh: or torus: spec", *preset)
	}
	tr, err := spec.Workload(0)
	if err != nil {
		return err
	}
	sess := nocdr.NewSession(nocdr.WithMaxPaths(*maxPaths), nocdr.WithVCLimit(*vcLimit))
	d, err := sess.NewReconfigDesign(ctx, spec.Grid.Cols, spec.Grid.Rows, spec.Grid.Wrap, *routing, tr)
	if err != nil {
		return err
	}
	if err := writeDesign(*out, d, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "design: %s %s, %d flows, %d extra VCs → %s\n",
		*preset, *routing, tr.NumFlows(), d.Topology.ExtraVCs(), outName(*out))
	return nil
}

// runReconfigure implements `nocexp reconfigure`: apply link-fault events
// to a design bundle online and report each event's delta. The
// verification gate lives in the tool: any committed design that fails
// Verify, any non-acyclic delta, and any deadlocked downtime simulation
// exits non-zero — CI needs no external report inspection.
func runReconfigure(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reconfigure", flag.ContinueOnError)
	fs.SetOutput(stderr)
	designPath := fs.String("design", "", "design bundle to evolve (required; the `nocexp design` artifact)")
	faultList := fs.String("fault", "", "comma-separated link IDs to retire, in order")
	faultCount := fs.Int("fault-count", 0, "retire this many seeded connectivity-safe links instead of -fault")
	faultSeed := fs.Int64("fault-seed", 0, "seed for -fault-count and -storm selection")
	storm := fs.Bool("storm", false, "keep retiring seeded safe links until none remains (or -storm-max)")
	stormMax := fs.Int("storm-max", 64, "upper bound on -storm events")
	out := fs.String("out", "", "write the evolved design bundle here")
	deltaOut := fs.String("delta", "", "write the JSON array of per-event deltas here")
	differential := fs.Bool("differential", false,
		"also run a from-scratch removal on the final faulted topology; with a single fault event, gate the replay's added VCs against it")
	skipSim := fs.Bool("skip-sim", false, "skip the per-event downtime simulation")
	simCycles := fs.Int64("sim-cycles", 0, "downtime simulation horizon per event (0 = library default)")
	quiet := fs.Bool("quiet", false, "suppress per-event progress on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *designPath == "" {
		return fmt.Errorf("-design is required")
	}
	modes := 0
	for _, set := range []bool{*faultList != "", *faultCount > 0, *storm} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -fault, -fault-count, -storm must be given")
	}

	f, err := os.Open(*designPath)
	if err != nil {
		return err
	}
	d, err := reconfig.ReadDesign(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("input design invalid: %w", err)
	}

	opts := []nocdr.Option{nocdr.WithMaxPaths(d.MaxPaths)}
	if !*quiet {
		opts = append(opts, nocdr.WithProgress(func(e nocdr.Event) {
			switch e.Kind {
			case nocdr.EventReconfigStage:
				fmt.Fprintf(stderr, "fault %d: %s\n", e.Fault, e.Stage)
			case nocdr.EventCycleBroken:
				fmt.Fprintf(stderr, "  break %d: %s cost %d cycle %d\n",
					e.Iteration, e.Break.Direction, e.Break.Cost, len(e.Break.Cycle))
			}
		}))
	}
	sess := nocdr.NewSession(opts...)
	ropts := nocdr.ReconfigOptions{SkipSim: *skipSim, SimCycles: *simCycles}

	// The three fault-selection modes share one loop: pop the next fault,
	// apply it as its own event, track the live fault set for the seeded
	// selectors. A storm stops cleanly when no connectivity-safe link is
	// left.
	live, err := reconfig.LiveGrid(d)
	if err != nil {
		return err
	}
	next, err := faultSource(live, *faultList, *faultCount, *faultSeed, *storm, *stormMax)
	if err != nil {
		return err
	}
	var deltas []*nocdr.ReconfigDelta
	for {
		fault, ok := next(len(deltas))
		if !ok {
			break
		}
		res, err := sess.Reconfigure(ctx, d, []nocdr.LinkID{fault}, ropts)
		if err != nil {
			return fmt.Errorf("fault %d: %w", fault, err)
		}
		d = res.Design
		delta := res.Deltas[0]
		deltas = append(deltas, delta)
		if err := live.Topology.Fault(fault); err != nil {
			return err
		}
		if !delta.Acyclic {
			return fmt.Errorf("verification FAILED: fault %d committed a cyclic design", fault)
		}
		if delta.Downtime.Simulated && delta.Downtime.Deadlocked {
			return fmt.Errorf("verification FAILED: fault %d downtime simulation deadlocked", fault)
		}
		fmt.Fprintf(stdout, "fault %d: moved %d flows, vcs_added=%d, %d links retired, %d breaks%s\n",
			delta.Fault, len(delta.FlowsMoved), delta.VCsAdded, len(delta.LinksRetired),
			len(delta.Breaks), downtimeNote(delta.Downtime))
	}
	if len(deltas) == 0 {
		return fmt.Errorf("no fault event ran")
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("verification FAILED: evolved design invalid: %w", err)
	}
	total := 0
	for _, delta := range deltas {
		total += delta.VCsAdded
	}

	if *differential {
		cold, err := reconfig.ColdRemove(ctx, d, core.Options{})
		if err != nil {
			return fmt.Errorf("differential FAILED: from-scratch removal of the faulted topology: %w", err)
		}
		fmt.Fprintf(stdout, "differential: warm added %d VCs over %d events; from-scratch removal adds %d\n",
			total, len(deltas), cold.AddedVCs)
		// The pinned property is per-event: one replay never costs more
		// than a whole redo of that event's topology. Only a single-event
		// run compares against the same topology the cold baseline saw.
		if len(deltas) == 1 && total > cold.AddedVCs {
			return fmt.Errorf("differential FAILED: replay added %d VCs, from-scratch removal only needs %d",
				total, cold.AddedVCs)
		}
	}

	if *out != "" {
		if err := writeDesign(*out, d, stdout); err != nil {
			return err
		}
	}
	if *deltaOut != "" {
		data, err := json.MarshalIndent(deltas, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*deltaOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "reconfigure: %d events committed, vcs_added=%d, design valid (acyclic)\n",
		len(deltas), total)
	return nil
}

// faultSource builds the per-mode fault iterator: it is called with the
// number of events applied so far and returns the next link to retire.
func faultSource(live *regular.Grid, faultList string, faultCount int, faultSeed int64, storm bool, stormMax int) (func(applied int) (nocdr.LinkID, bool), error) {
	switch {
	case faultList != "":
		ids, err := parseInts(faultList)
		if err != nil {
			return nil, fmt.Errorf("-fault: %w", err)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("-fault: no link IDs given")
		}
		return func(applied int) (nocdr.LinkID, bool) {
			if applied >= len(ids) {
				return 0, false
			}
			return nocdr.LinkID(ids[applied]), true
		}, nil
	case faultCount > 0:
		faults, err := regular.SelectFaults(live, faultCount, faultSeed)
		if err != nil {
			return nil, fmt.Errorf("-fault-count: %w", err)
		}
		return func(applied int) (nocdr.LinkID, bool) {
			if applied >= len(faults) {
				return 0, false
			}
			return faults[applied], true
		}, nil
	default: // storm
		if stormMax <= 0 {
			return nil, fmt.Errorf("-storm-max: %d out of range", stormMax)
		}
		return func(applied int) (nocdr.LinkID, bool) {
			if applied >= stormMax {
				return 0, false
			}
			faults, err := regular.SelectFaults(live, 1, faultSeed+int64(applied))
			if err != nil {
				return 0, false // no connectivity-safe link left: clean stop
			}
			return faults[0], true
		}, nil
	}
}

// writeDesign writes the bundle to path, or stdout for "-".
func writeDesign(path string, d *reconfig.Design, stdout io.Writer) error {
	if path == "-" {
		return d.Write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func outName(path string) string {
	if path == "-" {
		return "stdout"
	}
	return path
}

// downtimeNote renders the delta's downtime estimate for the event line.
func downtimeNote(dt nocdr.ReconfigDowntime) string {
	if !dt.Simulated {
		return ""
	}
	verdict := "drained"
	if !dt.Drained {
		verdict = "horizon"
	}
	if dt.Deadlocked {
		verdict = "DEADLOCKED"
	}
	return fmt.Sprintf(", downtime %d cycles (%s)", dt.Cycles, verdict)
}

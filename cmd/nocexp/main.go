// Command nocexp regenerates the paper's evaluation (Section 5): Figure 8
// (D26_media VC sweep), Figure 9 (D36_8 VC sweep), Figure 10 (normalized
// power at 14 switches), the scalar claims, and a simulation validation
// pass that the paper itself could not run. With -csvdir it also writes
// machine-readable CSVs for plotting.
//
// Usage:
//
//	nocexp              # everything
//	nocexp -fig 8       # one figure
//	nocexp -summary     # only the scalar claims
//	nocexp -demo        # only the simulation validation
//	nocexp -csvdir out/ # also write CSV files
//
// The sweep subcommand runs arbitrary experiment grids through the
// concurrent runner (see internal/bench/runner):
//
//	nocexp sweep                              # all six benchmarks, default axes
//	nocexp sweep -parallel 8 -json out.json   # fan out, write JSON report
//	nocexp sweep -benchmarks rand:64x6 -seeds 1,2,3 -switches 16,24,32
//	nocexp sweep -simulate                    # + flit-level verification per cell
//	nocexp sweep -simulate -benchmarks torus:8x8:transpose,mesh:4x4:bitrev
//
// The design and reconfigure subcommands are the online-reconfiguration
// pipeline: design writes a removed design bundle, reconfigure evolves it
// through live link-fault events and reports each event's delta:
//
//	nocexp design -preset mesh:8x8:all-to-all -routing odd-even -out design.json
//	nocexp reconfigure -design design.json -fault 17          # one event
//	nocexp reconfigure -design design.json -fault-count 2 -fault-seed 1 -differential
//	nocexp reconfigure -design design.json -storm -out evolved.json -delta deltas.json
//
// The certify subcommand is the independent checker: it re-reads an
// emitted design bundle, rebuilds the channel-dependency graph from
// first principles (sharing no code with the removal engine), and writes
// a machine-checkable certificate — a topological order as the
// acyclicity witness, or the smallest dependency cycle as the
// counterexample witness with -pre:
//
//	nocexp certify -design design.json -out cert.json
//	nocexp certify -design pre.json -pre     # expect a cyclic pre-removal design
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"github.com/nocdr/nocdr/internal/bench"
	"github.com/nocdr/nocdr/internal/traffic"
)

func main() {
	if len(os.Args) > 1 {
		var sub func(context.Context, []string, io.Writer, io.Writer) error
		switch os.Args[1] {
		case "sweep":
			sub = runSweep
		case "design":
			sub = runDesign
		case "reconfigure":
			sub = runReconfigure
		case "certify":
			sub = runCertify
		}
		if sub != nil {
			// Ctrl-C / SIGTERM cancel the subcommand cooperatively: sweep
			// workers drain (the partial JSON report is still written,
			// marked "canceled": true), reconfigure rolls the in-flight
			// event back. A second signal kills the process the default
			// way (NotifyContext unregisters after the first).
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			err := sub(ctx, os.Args[2:], os.Stdout, os.Stderr)
			stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "nocexp %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	fig := flag.Int("fig", 0, "regenerate only figure 8, 9, or 10")
	summaryOnly := flag.Bool("summary", false, "print only the Section 5 scalar claims")
	demoOnly := flag.Bool("demo", false, "run only the simulation validation")
	extOnly := flag.Bool("ext", false, "run only the extension studies (recovery, turn prohibition)")
	csvDir := flag.String("csvdir", "", "also write CSV files into this directory")
	demoCycles := flag.Int64("demo-cycles", 30000, "simulation horizon for -demo")
	flag.Parse()

	if err := run(*fig, *summaryOnly, *demoOnly, *extOnly, *csvDir, *demoCycles); err != nil {
		fmt.Fprintln(os.Stderr, "nocexp:", err)
		os.Exit(1)
	}
}

func run(fig int, summaryOnly, demoOnly, extOnly bool, csvDir string, demoCycles int64) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	all := fig == 0 && !summaryOnly && !demoOnly && !extOnly

	var fig8, fig9 []bench.SweepPoint
	var fig10 []bench.PowerRow
	var err error

	if all || fig == 8 || summaryOnly {
		if fig8, err = bench.Figure8(); err != nil {
			return err
		}
	}
	if all || fig == 9 || summaryOnly {
		if fig9, err = bench.Figure9(); err != nil {
			return err
		}
	}
	if all || fig == 10 || summaryOnly {
		if fig10, err = bench.Figure10(); err != nil {
			return err
		}
	}

	out := os.Stdout
	if (all || fig == 8) && !summaryOnly && !demoOnly {
		if err := bench.WriteSweepTable(out,
			"Figure 8: VCs added vs switch count — D26_media (removal vs resource ordering)", fig8); err != nil {
			return err
		}
		if err := writeCSV(csvDir, "figure8.csv", fig8); err != nil {
			return err
		}
	}
	if (all || fig == 9) && !summaryOnly && !demoOnly {
		if err := bench.WriteSweepTable(out,
			"Figure 9: VCs added vs switch count — D36_8 (removal vs resource ordering)", fig9); err != nil {
			return err
		}
		if err := writeCSV(csvDir, "figure9.csv", fig9); err != nil {
			return err
		}
	}
	if (all || fig == 10) && !summaryOnly && !demoOnly {
		if err := bench.WritePowerTable(out,
			"Figure 10: power and area at 14 switches (removal vs resource ordering)", fig10); err != nil {
			return err
		}
		if csvDir != "" {
			f, err := os.Create(filepath.Join(csvDir, "figure10.csv"))
			if err != nil {
				return err
			}
			if err := bench.WritePowerCSV(f, fig10); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if all || summaryOnly {
		// The summary draws on full sweeps across every benchmark, like
		// the paper's "average of 88%" over all its experiments.
		var sweeps [][]bench.SweepPoint
		sweeps = append(sweeps, fig8, fig9)
		for _, g := range traffic.AllBenchmarks() {
			if g.Name == "D26_media" || g.Name == "D36_8" {
				continue // already covered by the figure sweeps
			}
			sweep, err := bench.VCSweep(g, []int{8, 14, 20})
			if err != nil {
				return err
			}
			sweeps = append(sweeps, sweep)
		}
		if err := bench.WriteSummary(out, bench.Summarize(fig10, sweeps...)); err != nil {
			return err
		}
	}

	if all || demoOnly {
		var demos []bench.DeadlockDemo
		ring, err := bench.RunRingDemo(demoCycles)
		if err != nil {
			return err
		}
		demos = append(demos, *ring)
		for _, g := range traffic.AllBenchmarks() {
			demo, err := bench.RunDeadlockDemo(g, 10, demoCycles)
			if err != nil {
				return err
			}
			demos = append(demos, *demo)
		}
		if err := bench.WriteDemoTable(out, demos); err != nil {
			return err
		}
	}

	if all || extOnly {
		rows, err := bench.CompareMethods(bench.Fig10SwitchCount)
		if err != nil {
			return err
		}
		if err := bench.WriteMethodsTable(out, rows); err != nil {
			return err
		}
		top, g, tab, err := bench.RingWorkload()
		if err != nil {
			return err
		}
		rec, err := bench.CompareRecovery("fig1_ring", top, g, tab, demoCycles)
		if err != nil {
			return err
		}
		if err := bench.WriteRecoveryTable(out, []bench.RecoveryRow{*rec}); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(dir, name string, points []bench.SweepPoint) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := bench.WriteSweepCSV(f, points); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

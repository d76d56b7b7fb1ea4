// Command perfbench is the repository benchmark. It drives the program
// from outside through its exported entry points — the sweep engine
// (runner.RunContext) and an in-process job server (serve.Server on
// loopback) — over four fixed workloads, checks every output, and prints
// one JSON result line. With -trace 1 it instead runs each workload's
// cells through the layers' own exported calls, recording a span around
// every call, and prints the per-layer metrics. README.md describes the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload synth_grid --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when -seed is not given;
// heldOutSeed is the second seed every later gain claim must also hold
// on. Both have committed known answers in known_answers.json.
const (
	defaultSeed = 1
	heldOutSeed = 9
)

// metric is one named measurement as printed on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts the operations a run attempted and the ones that failed
// any output check, keeping the first few failure messages for stderr.
type checks struct {
	attempted, failed int
	msgs              []string
}

// expect records one checked operation.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// metricSet accumulates a run's named values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// traceOut, when non-empty, receives the traced run's spans as JSON.
	traceOut string
}

// workload is one benchmark input set. Exactly one of sweep and served
// is set.
type workload struct {
	name   string
	sweep  *sweepSpec
	served *servedSpec
}

func (w workload) run(ctx context.Context, cfg runConfig, trace bool) (metricSet, *checks, error) {
	if w.sweep != nil {
		if trace {
			return w.sweep.traced(ctx, w.name, cfg)
		}
		return w.sweep.untraced(ctx, w.name, cfg)
	}
	if trace {
		return w.served.traced(ctx, w.name, cfg)
	}
	return w.served.untraced(ctx, w.name, cfg)
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measure for this many seconds (at least one pass runs)")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	w, ok := workloads(*name)
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds >= 0) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0,1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench",
			fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
	}
	res, err := measure(ctx, w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs one workload and assembles its result line, printing any
// failed checks to stderr.
func measure(ctx context.Context, w workload, cfg runConfig, trace bool) (result, error) {
	m, c, err := w.run(ctx, cfg, trace)
	if err != nil {
		return result{}, err
	}
	if trace {
		m.set("error_rate", float64(c.failed)/float64(max(c.attempted, 1)), "ratio")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	for _, msg := range c.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", w.name, msg)
	}
	return result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: max(c.attempted, 1),
		Failed:    c.failed,
		Metrics:   m,
	}, nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// writeSpans writes the traced run's spans, kept in memory during the
// run, to path.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// measureSetup runs setup at least five times and until half a second
// has been spent, and returns the median duration with the last setup's
// output. Set-up cost is reported as its own metric, so work moved out of
// the timed window shows.
func measureSetup[T any](setup func() (T, error)) (T, float64, error) {
	var (
		out   T
		times []float64
		spent time.Duration
	)
	for len(times) < 5 || (spent < 500*time.Millisecond && len(times) < 200) {
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0)
		if err != nil {
			return out, 0, err
		}
		out = v
		spent += d
		times = append(times, d.Seconds())
	}
	return out, median(times), nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// cpuTime is the CPU time the process has used so far. Unlike wall
// time it excludes the time the host gave the machine's CPUs to other
// tenants.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

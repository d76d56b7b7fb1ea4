package runner_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/serve"
)

// BenchmarkShardedSweep measures the distributed backend on a
// deep-sweep-shaped grid (8x8 mesh + torus presets × three routings ×
// seeded faults × two seeds, with the flit-level verification stage —
// 18 cells, ~50ms each), sharded across 1, 2 and 4 single-threaded local
// workers. Every worker is pinned to one job slot and a one-wide runner
// pool, so the speedup across sub-benchmarks is pure fan-out:
// near-linear scaling with available cores is the acceptance bar of the
// sharded backend (≥2.5x at 4 workers on a ≥4-core machine). The
// workers=1 run doubles as the overhead gauge — it must track the
// in-process serial run within a few percent, pinning the HTTP+poll tax
// the distributed path pays per shard.
func BenchmarkShardedSweep(b *testing.B) {
	grid := runner.Grid{
		Benchmarks: []string{"mesh:8x8:bitrev", "mesh:8x8:transpose", "torus:6"},
		Routings:   []string{"west-first", "odd-even", "min-adaptive"},
		Faults:     1,
		Seeds:      []int64{0, 1},
	}
	opts := runner.Options{Simulate: true, Sim: runner.SimParams{Cycles: 8000}}
	b.Run("serial-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(grid, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			urls, shutdown, err := serve.LocalCluster(workers, serve.Options{Workers: 1, SweepParallel: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer shutdown()
			sh := &runner.Sharded{Workers: urls}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := sh.RunContext(context.Background(), grid, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rep.Results {
					if r.Error != "" {
						b.Fatalf("cell %q failed: %s", r.Job.Key(), r.Error)
					}
				}
			}
		})
	}
}

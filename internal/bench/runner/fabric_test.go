package runner_test

// Fabric conformance suite: the sharded dispatcher driven by live worker
// membership (WorkerSource) and the content-addressed result cache. The
// invariant is unchanged from sharded_test.go — whatever the membership
// churn or cache state, the merged report is byte-identical to the
// serial in-process run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/serve"
)

// fakeSource is a hand-driven WorkerSource: tests mutate the membership
// and signal the dispatcher exactly when they mean to.
type fakeSource struct {
	mu      sync.Mutex
	urls    []string
	updates chan struct{}
}

func newFakeSource(urls ...string) *fakeSource {
	return &fakeSource{urls: urls, updates: make(chan struct{}, 1)}
}

func (s *fakeSource) WorkerURLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.urls...)
}

func (s *fakeSource) Updates() <-chan struct{} { return s.updates }

func (s *fakeSource) set(urls ...string) {
	s.mu.Lock()
	s.urls = urls
	s.mu.Unlock()
	select {
	case s.updates <- struct{}{}:
	default:
	}
}

// mapCache is a transparent CellCache for tests that need to inspect or
// surgically evict entries.
type mapCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][]byte)} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

func (c *mapCache) delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
}

func (c *mapCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// countSubmits wraps worker handlers to count /v1/sweep submissions, so
// tests can assert which workers took shards and how many dispatches a
// cache pre-pass avoided.
func countSubmits(counts []int64) func(int, http.Handler) http.Handler {
	var mu sync.Mutex
	return func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweep") {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
}

func totalSubmits(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// TestShardedLateJoinPicksUpUnownedShards starts a sweep against an
// empty fleet: every shard is unowned. Two workers join mid-run through
// the WorkerSource, take all of them, and the merged report must be
// byte-identical to the serial run — a worker's join time cannot leak
// into the results.
func TestShardedLateJoinPicksUpUnownedShards(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 2)
	urls := startWorkers(t, 2, countSubmits(counts))
	src := newFakeSource() // empty at start: the run must wait, not fail
	go func() {
		time.Sleep(50 * time.Millisecond)
		src.set(urls...)
	}()
	sh := &runner.Sharded{
		Source:    src,
		JoinGrace: 30 * time.Second,
	}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("late-join report differs from serial:\nserial:\n%s\njoined:\n%s", want, got)
	}
	if totalSubmits(counts) == 0 {
		t.Fatal("no shard was ever dispatched to the joined workers")
	}
}

// TestShardedJoinGraceExpires pins the bounded wait: an empty source
// that never produces a worker must fail with the join-grace error, not
// hang forever.
func TestShardedJoinGraceExpires(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:3"}, Seeds: []int64{0}}
	sh := &runner.Sharded{
		Source:    newFakeSource(),
		JoinGrace: 30 * time.Millisecond,
	}
	_, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err == nil || !strings.Contains(err.Error(), "no worker joined within") {
		t.Fatalf("expected join-grace failure, got %v", err)
	}
}

// TestShardedEmptySourceFailsFast pins the zero-grace path: an empty
// fleet with JoinGrace unset (0 through the struct literal is
// interpreted as "fail fast", the CLI's behavior for a coordinator with
// no registered workers is bounded by the default grace instead).
func TestShardedEmptySourceFailsFast(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:3"}, Seeds: []int64{0}}
	sh := &runner.Sharded{Source: newFakeSource()}
	_, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err == nil || !strings.Contains(err.Error(), "no live workers registered") {
		t.Fatalf("expected fail-fast on empty fleet, got %v", err)
	}
}

// TestShardedJoinGraceIsADeadline pins JoinGrace as one deadline armed
// when the live fleet empties: a source that keeps signalling without
// admitting anyone (a flapping registry that re-lists the one worker the
// run already retired) must not restart it.
func TestShardedJoinGraceIsADeadline(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusInternalServerError)
	}))
	defer down.Close()
	src := newFakeSource(down.URL)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				src.set(down.URL)
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	sh := &runner.Sharded{Source: src, JoinGrace: 200 * time.Millisecond}
	start := time.Now()
	_, err := sh.RunContext(ctx, runner.Grid{Benchmarks: []string{"mesh:3"}, Seeds: []int64{0}}, runner.Options{})
	if !errors.Is(err, nocerr.ErrWorker) || !strings.Contains(err.Error(), "no worker joined within") {
		t.Fatalf("expected the join-grace failure, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("join grace expired after %v, want < 1s", d)
	}
}

// TestShardedWorkersAndSource pins the membership Session builds for
// WithWorkers plus WithWorkerSource: static URLs and a source whose
// snapshots repeat one of them admit each worker once. A worker admitted
// twice would take two shards at a time, so every submit is held briefly
// and overlapping submits to one worker fail the test.
func TestShardedWorkersAndSource(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 2)
	var inSubmit [2]atomic.Int32
	var overlapped atomic.Bool
	count := countSubmits(counts)
	urls := startWorkers(t, 2, func(i int, h http.Handler) http.Handler {
		h = count(i, h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweep") {
				if inSubmit[i].Add(1) > 1 {
					overlapped.Store(true)
				}
				defer inSubmit[i].Add(-1)
				time.Sleep(20 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	src := newFakeSource(urls[1] + "/")
	src.updates <- struct{}{} // a pending signal that re-lists it
	var retries atomic.Int32
	sh := &runner.Sharded{Workers: urls, Source: src, OnRetry: func(int, string, error) { retries.Add(1) }}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("Workers+Source report differs from serial:\nserial:\n%s\ngot:\n%s", want, got)
	}
	if overlapped.Load() {
		t.Fatal("a worker took two shards at once: it was admitted more than once")
	}
	if n := retries.Load(); n != 0 {
		t.Fatalf("%d shard retries in a healthy fleet", n)
	}
	shards := make(map[int]bool)
	for _, j := range grid.Jobs() {
		shards[runner.ShardOf(j, runner.DefaultShardCount)] = true
	}
	if n := totalSubmits(counts); n != int64(len(shards)) {
		t.Fatalf("%d submits for %d shards, want one each", n, len(shards))
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("worker %d took no shard", i)
		}
	}
}

// TestShardedCacheSecondRunDispatchesNothing is the coordinator-cache
// conformance centerpiece: run a sweep twice against the same cache;
// the second run must answer every shard from the cache — zero HTTP
// dispatches — and still serialize byte-identically.
func TestShardedCacheSecondRunDispatchesNothing(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 2)
	urls := startWorkers(t, 2, countSubmits(counts))
	cache := fabric.NewCache(fabric.CacheOptions{})
	opts := runner.Options{CellCache: cache}

	sh := &runner.Sharded{Workers: urls}
	rep1, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep1); !bytes.Equal(want, got) {
		t.Fatalf("cold cached run differs from serial:\nserial:\n%s\ncold:\n%s", want, got)
	}
	cold := totalSubmits(counts)
	if cold == 0 {
		t.Fatal("cold run dispatched nothing")
	}

	rep2, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep2); !bytes.Equal(want, got) {
		t.Fatalf("cache-served run differs from serial:\nserial:\n%s\ncached:\n%s", want, got)
	}
	if warm := totalSubmits(counts) - cold; warm != 0 {
		t.Fatalf("cache-served run dispatched %d shard(s), want 0", warm)
	}
	if st := cache.Stats(); st.Hits < uint64(len(grid.Jobs())) {
		t.Fatalf("cache stats after warm run: %+v, want >= %d hits", st, len(grid.Jobs()))
	}
}

// TestShardedCachePartialEviction evicts a single cell and reruns: the
// shard holding it must dispatch whole (the merge rejects duplicate
// cells, so a partially cached shard cannot be split), the others must
// stay local, and the report must remain byte-identical.
func TestShardedCachePartialEviction(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 1)
	urls := startWorkers(t, 1, countSubmits(counts))
	cache := newMapCache()
	opts := runner.Options{CellCache: cache}
	sh := &runner.Sharded{Workers: urls}
	if _, err := sh.RunContext(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}
	cold := totalSubmits(counts)
	jobs := grid.Jobs()
	if cache.len() != len(jobs) {
		t.Fatalf("cache holds %d entries after cold run, want %d", cache.len(), len(jobs))
	}
	cache.delete(runner.CellKey(jobs[0], opts, grid.Loads))

	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("partially cached run differs from serial:\nserial:\n%s\npartial:\n%s", want, got)
	}
	warm := totalSubmits(counts) - cold
	if warm == 0 {
		t.Fatal("evicted cell's shard was never dispatched")
	}
	if warm >= cold {
		t.Fatalf("partial rerun dispatched %d shard(s), cold run %d — cache served nothing", warm, cold)
	}
	if cache.len() != len(jobs) {
		t.Fatalf("rerun did not repopulate the evicted cell: %d entries, want %d", cache.len(), len(jobs))
	}
}

// TestShardedNoCacheBypassesButRefreshes pins -no-cache semantics for
// the sharded path: a poisoned cache entry must not reach the report,
// and the bypassing run must overwrite it with the honest bytes.
func TestShardedNoCacheBypassesButRefreshes(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0, 1}}
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	urls := startWorkers(t, 1, nil)
	cache := newMapCache()
	opts := runner.Options{CellCache: cache}
	sh := &runner.Sharded{Workers: urls}
	if _, err := sh.RunContext(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}

	// Poison every entry; a cache-consulting run would now produce
	// garbage (the pre-pass rejects undecodable entries, so poison with
	// a decodable-but-wrong result: the other job's bytes).
	jobs := grid.Jobs()
	k0 := runner.CellKey(jobs[0], opts, grid.Loads)
	honest, _ := cache.Get(k0)
	poisoned := bytes.Replace(honest, []byte(`"added_vcs"`), []byte(`"added_vcs_x"`), 1)
	cache.Put(k0, poisoned)

	bypass := opts
	bypass.NoCache = true
	rep, err := sh.RunContext(context.Background(), grid, bypass)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("no-cache run differs from serial:\nserial:\n%s\nbypass:\n%s", want, got)
	}
	if refreshed, _ := cache.Get(k0); !bytes.Equal(refreshed, honest) {
		t.Fatalf("no-cache run did not refresh the poisoned entry:\n%s", refreshed)
	}
}

// TestShardedHeartbeatRetirementRequeues is the end-to-end fleet chaos
// test: a real coordinator registry with a fast heartbeat contract, one
// live worker and one that registered and then died silently. The sweep
// starts while the corpse is still listed, its shards requeue onto the
// survivor, the registry retires it once its heartbeat budget lapses,
// and the merged report is byte-identical to serial.
func TestShardedHeartbeatRetirementRequeues(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	coord := serve.New(serve.Options{
		Workers:           1,
		HeartbeatInterval: 20 * time.Millisecond,
		MissedBudget:      2,
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { cts.Close(); coord.Close() })

	survivor := startWorkers(t, 1, nil)[0]
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // registered URL, nobody home

	register := func(url string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"url": url})
		resp, err := http.Post(cts.URL+"/v1/workers/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", url, resp.StatusCode)
		}
	}
	register(deadURL)
	register(survivor)
	// Keep the survivor's heartbeat alive for the whole test; the dead
	// worker never beats and must age out.
	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	if err := fabric.Join(hbCtx, cts.URL, survivor, fabric.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	src, err := fabric.WatchWorkers(context.Background(), cts.URL, "", 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	sh := &runner.Sharded{
		Source:    src,
		JoinGrace: 30 * time.Second,
	}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("report with a dead fleet member differs from serial:\nserial:\n%s\ngot:\n%s", want, got)
	}

	// The registry must have retired the silent worker by now (the sweep
	// took far longer than the 40ms liveness budget); the survivor, still
	// heartbeating, must remain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := src.WorkerURLs()
		if len(live) == 1 && live[0] == survivor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never retired the dead worker: live set %v", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCellKeyDiscriminates pins the cache-key derivation: every semantic
// input must change the key, and scheduling knobs must not.
func TestCellKeyDiscriminates(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0}}
	job := grid.Jobs()[0]
	base := runner.CellKey(job, runner.Options{}, nil)

	if k := runner.CellKey(job, runner.Options{}, nil); k != base {
		t.Fatal("CellKey is not deterministic")
	}
	other := job
	other.Seed++
	if k := runner.CellKey(other, runner.Options{}, nil); k == base {
		t.Fatal("seed change did not change the cell key")
	}
	if k := runner.CellKey(job, runner.Options{FullRebuild: true}, nil); k == base {
		t.Fatal("FullRebuild did not change the cell key")
	}
	if k := runner.CellKey(job, runner.Options{Simulate: true}, nil); k == base {
		t.Fatal("Simulate did not change the cell key")
	}
	if k := runner.CellKey(job, runner.Options{VCLimit: 3}, nil); k == base {
		t.Fatal("VCLimit did not change the cell key")
	}
	// Scheduling and caching knobs are not semantic inputs.
	if k := runner.CellKey(job, runner.Options{Parallel: 7, NoCache: true}, nil); k != base {
		t.Fatal("scheduling knobs leaked into the cell key")
	}
	// Loads only matter when the simulation stage consumes them.
	if k := runner.CellKey(job, runner.Options{}, []float64{0.5}); k != base {
		t.Fatal("loads changed the key of a non-simulating cell")
	}
	simBase := runner.CellKey(job, runner.Options{Simulate: true}, nil)
	if k := runner.CellKey(job, runner.Options{Simulate: true}, []float64{0.5}); k == simBase {
		t.Fatal("loads did not change the key of a simulating cell")
	}
	// Defaulted and explicit-default simulation parameters are the same
	// computation, so they must share a key.
	explicit := runner.Options{Simulate: true, Sim: runner.SimParams{Cycles: 20000, Load: 1.0, BufferDepth: 2}}
	if k := runner.CellKey(job, explicit, nil); k != simBase {
		t.Fatal("explicit default SimParams changed the cell key")
	}
}

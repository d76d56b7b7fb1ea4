package runner

import "context"

// groupKey identifies a design: every job with the same key builds the
// same topology, routes, removal and ordering, so the grouped scheduler
// evaluates the design once and fans only the simulation stage out
// across the member cells. The seed participates only when the design
// itself is seed-dependent (seeded random traffic, seeded fault
// scenarios); otherwise the seeds axis varies just the injection
// process and the whole seed column shares one build.
type groupKey struct {
	benchmark string
	switches  int
	routing   string
	faults    int
	policy    string
	seeded    bool
	seed      int64
}

func keyOf(job Job) groupKey {
	k := groupKey{
		benchmark: job.Benchmark,
		switches:  job.SwitchCount,
		routing:   job.Routing,
		faults:    job.Faults,
		policy:    job.Policy,
	}
	if s, err := ParseSpec(job.Benchmark); err == nil && s.seededDesign(job.Faults) {
		k.seeded, k.seed = true, job.Seed
	}
	return k
}

// groupJobs partitions job indices into design groups, in first-appearance
// order. Seeds are the innermost Jobs axis, so on a full grid each group
// is a contiguous run of cells; shard-filtered job lists group the same
// way with fewer members. Indices marked in skip (cells already served
// from the result cache) join no group; a nil skip takes every cell.
func groupJobs(jobs []Job, skip []bool) [][]int {
	byKey := map[groupKey]int{}
	var groups [][]int
	for i, j := range jobs {
		if skip != nil && skip[i] {
			continue
		}
		k := keyOf(j)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// designBuildHook, when non-nil, observes every design construction the
// grouped scheduler performs (one call per group). The cache-effectiveness
// tests hook it to assert an N-seed grid builds each design exactly once.
var designBuildHook func(Job)

// runGroup evaluates one design group: the design is built once from the
// group's first member and the simulation stage runs as a lockstep batch
// across the members' derived seeds (times the measurement loads, when a
// load sweep is configured). Every failure mode mirrors runJob exactly —
// each member's Result must be byte-identical to an independent runJob of
// that cell, which the conformance tests pin differentially.
func runGroup(ctx context.Context, jobs []Job, members []int, results []Result, opts Options, loads []float64, laneParallel int) {
	job0 := jobs[members[0]]
	emit := func(r Result) {
		for _, i := range members {
			r.Job = jobs[i]
			results[i] = r
		}
	}
	evalOpts, err := opts.evalOptions(job0)
	if err != nil {
		emit(Result{}.fail(err))
		return
	}
	if hook := designBuildHook; hook != nil {
		hook(job0)
	}
	// The group key carries the seed whenever the design depends on it
	// (rand: traffic, seeded faults), so job0's design is every member's.
	de, cores, skipped, err := buildCell(ctx, job0, evalOpts)
	switch {
	case err != nil:
		emit(Result{Cores: cores}.fail(err))
		return
	case skipped:
		emit(Result{Cores: cores, Skipped: true})
		return
	}

	// The certification, like the removal, is design-level: the checker
	// runs once per group and only the agreement check (which consults
	// each member's simulation) is derived per cell — byte-identical to
	// an independent runJob of every member.
	var ce *certEval
	if opts.Certify {
		ce = de.certify()
	}

	var sims []*SimResult
	if opts.Simulate {
		// Derive the per-cell simulation seeds from the job seeds so the
		// seeds axis varies the injection process even on deterministic
		// benchmarks — the same derivation runJob uses.
		seeds := make([]int64, len(members))
		for k, i := range members {
			seeds[k] = opts.Sim.Seed + jobs[i].Seed + 1
		}
		if sims, err = de.simEvalBatch(ctx, opts.Sim, seeds, loads, laneParallel); err != nil {
			emit(Result{Cores: cores}.fail(err))
			return
		}
	}
	// The removal ran once for the whole group; every member reports its
	// wall-clock (timings are progress-only and never serialized).
	base := Result{Cores: cores}.withPoint(de.point)
	for k, i := range members {
		r := base
		r.Job = jobs[i]
		if sims != nil {
			r.Sim = sims[k]
		}
		if ce != nil {
			r.Certify = ce.withSim(r.Sim)
		}
		results[i] = r
	}
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// knownAnswersJSON holds the committed known answers. Regenerate it only
// when a change is meant to alter the program's outputs:
//
//	cd perfbench && go test -run TestKnownAnswers -update
//
//go:embed known_answers.json
var knownAnswersJSON []byte

// cellAnswer is one seed-independent design's expected removal result.
// OrderingVCs is absent where the workload does not run the ordering
// baseline.
type cellAnswer struct {
	RemovalVCs  int  `json:"removal_vcs"`
	OrderingVCs *int `json:"ordering_vcs,omitempty"`
	Breaks      int  `json:"breaks"`
}

// knownAnswers are the expected outputs: per workload, the results of
// every design that does not depend on the seed (checked on every run,
// whatever the seed), and for the default and held-out seeds the
// deterministic per-pass totals.
type knownAnswers struct {
	Anchors map[string]map[string]cellAnswer         `json:"anchors"`
	Seeds   map[string]map[string]map[string]float64 `json:"seeds"`
}

var known = mustLoadKnown()

func mustLoadKnown() *knownAnswers {
	var k knownAnswers
	if err := json.Unmarshal(knownAnswersJSON, &k); err != nil {
		panic(fmt.Sprintf("perfbench: embedded known_answers.json: %v", err))
	}
	return &k
}

// cellProblem compares a seed-independent design with its known answer
// ("" when it matches, when key names no seed-independent design, or
// when the workload has no known answers at all).
func (k *knownAnswers) cellProblem(workload, key string, removal, ordering, breaks int) string {
	if key == "" {
		return ""
	}
	anchors, ok := k.Anchors[workload]
	if !ok {
		return ""
	}
	want, ok := anchors[key]
	if !ok {
		return fmt.Sprintf("no known answer for %s", key)
	}
	if removal != want.RemovalVCs || breaks != want.Breaks || (want.OrderingVCs != nil && ordering != *want.OrderingVCs) {
		got := fmt.Sprintf("removal=%d breaks=%d ordering=%d", removal, breaks, ordering)
		return fmt.Sprintf("known answer mismatch for %s: got %s, want %+v", key, got, want)
	}
	return ""
}

// checkSeed compares a pass's deterministic totals with the committed
// ones, when the seed has them.
func (k *knownAnswers) checkSeed(c *checks, workload string, seed int64, got map[string]float64) {
	want, ok := k.Seeds[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return
	}
	for name, w := range want {
		c.expect(got[name] == w, "seed %d: %s = %v, known answer %v", seed, name, got[name], w)
	}
}

// Content-addressed result caching for the sweep engine. A cell's cache
// key is the fabric hash of every semantic input of its evaluation — the
// job identity plus the option fields that change its result — so equal
// keys imply byte-identical results and any engine change (via the
// fabric salt) disjoints the whole key space at once.

package runner

import (
	"encoding/json"

	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/fabric"
)

// CellCache is the result-cache contract the sweep engine consults: Get
// returns the cached canonical JSON encoding of a cell's Result, Put
// stores one. Implementations must be safe for concurrent use;
// fabric.Cache satisfies the interface.
type CellCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// cellKeyParts is the canonical input set of one cell evaluation. Every
// field that can change the cell's Result participates; scheduling knobs
// (Parallel, Progress, shard assignment) deliberately do not — the same
// cell computed anywhere must hit the same address.
type cellKeyParts struct {
	Job         Job       `json:"job"`
	Policy      int       `json:"policy"`
	VCLimit     int       `json:"vc_limit"`
	FullRebuild bool      `json:"full_rebuild"`
	Simulate    bool      `json:"simulate"`
	Sim         SimParams `json:"sim"`
	MaxPaths    int       `json:"max_paths"`
	Loads       []float64 `json:"loads,omitempty"`
	// Certify participates with omitempty so uncertified runs keep their
	// pre-existing addresses; certified and uncertified evaluations of
	// the same cell are distinct results and never alias.
	Certify bool `json:"certify,omitempty"`
}

// CellKey is the content address of one grid cell's evaluation under the
// given options and measurement loads. Simulation parameters are
// normalized to their effective values (so explicit defaults and zero
// values address the same entry) and dropped entirely when the run does
// not simulate, where they cannot influence the result.
func CellKey(j Job, opts Options, loads []float64) string {
	p := cellKeyParts{
		Job:         j,
		Policy:      int(opts.Policy),
		VCLimit:     opts.VCLimit,
		FullRebuild: opts.FullRebuild,
		Simulate:    opts.Simulate,
		MaxPaths:    opts.maxPaths,
		Certify:     opts.Certify,
	}
	if opts.Simulate {
		p.Sim = opts.Sim.withDefaults()
		p.Loads = loads
	}
	return fabric.Key("sweep-cell", p)
}

// cellHit is one cell the result cache answers: the decoded result and
// the raw entry it was decoded from.
type cellHit struct {
	res   Result
	entry fabric.CacheEntry
}

// probeCache is the cache pre-pass of local and sharded runs: it looks
// every job up in opts.CellCache and returns the usable hits aligned
// with jobs (nil = miss), or nil outright when the run has no cache or
// bypasses lookups. A stored entry is usable only if it decodes to a
// Result of the same cell and, on certified runs, carries a certificate
// from the running checker: a hit whose salt does not match (possible
// when the cache persisted across a checker change without an
// engine-salt bump) is a miss, so the cell re-certifies.
func probeCache(jobs []Job, opts Options, loads []float64) []*cellHit {
	if opts.CellCache == nil || opts.NoCache {
		return nil
	}
	hits := make([]*cellHit, len(jobs))
	for i, j := range jobs {
		key := CellKey(j, opts, loads)
		data, ok := opts.CellCache.Get(key)
		if !ok {
			continue
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil || r.Job != j {
			continue
		}
		if opts.Certify && (r.Certify == nil || r.Certify.Salt != certify.Salt) {
			continue
		}
		hits[i] = &cellHit{res: r, entry: fabric.CacheEntry{Key: key, Value: data}}
	}
	return hits
}

// storeCell stores a computed cell under its content address. Errored
// and canceled cells are never stored: they must re-run next time.
func storeCell(j Job, r Result, opts Options, loads []float64) {
	if opts.CellCache == nil || r.Error != "" || r.Canceled {
		return
	}
	if data, err := json.Marshal(r); err == nil {
		opts.CellCache.Put(CellKey(j, opts, loads), data)
	}
}

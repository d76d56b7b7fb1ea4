package serve

// Wire-contract pins: policy names rejected identically on every
// endpoint that takes them, and the content addresses of cached job
// results, which must not move when request types are refactored.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/nocdr/nocdr/internal/fabric"
)

// TestPolicyNamesRejected pins that an unknown direction policy or
// cycle selection is a 400 at submission on every endpoint that takes
// one. A sweep's selection is its grid's policies axis.
func TestPolicyNamesRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	topo, _, routes := ringDesign(t)
	design, faults := reconfigDesignJSON(t)
	grid := map[string]any{"benchmarks": []string{"D26_media"}, "switch_counts": []int{8}}
	cases := []struct {
		name, path, bad string
		body            map[string]any
	}{
		{"remove/policy", "/v1/remove", "sideways", map[string]any{
			"topology": topo, "routes": routes, "options": map[string]any{"policy": "sideways"}}},
		{"remove/selection", "/v1/remove", "loudest", map[string]any{
			"topology": topo, "routes": routes, "options": map[string]any{"selection": "loudest"}}},
		{"sweep/policy", "/v1/sweep", "sideways", map[string]any{
			"grid": grid, "options": map[string]any{"policy": "sideways"}}},
		{"sweep/selection", "/v1/sweep", "loudest", map[string]any{
			"grid": map[string]any{"benchmarks": []string{"D26_media"}, "switch_counts": []int{8}, "policies": []string{"loudest"}}}},
		{"reconfigure/policy", "/v1/reconfigure", "sideways", map[string]any{
			"design": design, "faults": faults, "options": map[string]any{"policy": "sideways"}}},
		{"reconfigure/selection", "/v1/reconfigure", "loudest", map[string]any{
			"design": design, "faults": faults, "options": map[string]any{"selection": "loudest"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var doc struct {
				Error string `json:"error"`
			}
			if code := postJSON(t, ts.URL+tc.path, tc.body, &doc); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if !strings.Contains(doc.Error, tc.bad) {
				t.Fatalf("error %q does not name %q", doc.Error, tc.bad)
			}
		})
	}
	// The same names spelled correctly are accepted everywhere.
	for _, body := range []map[string]any{
		{"topology": topo, "routes": routes, "options": map[string]any{"policy": "backward", "selection": "first"}},
		{"grid": map[string]any{"benchmarks": []string{"D26_media"}, "switch_counts": []int{8}, "policies": []string{"first"}},
			"options": map[string]any{"policy": "forward"}},
	} {
		path := "/v1/remove"
		if _, ok := body["grid"]; ok {
			path = "/v1/sweep"
		}
		var sub submitResponse
		if code := postJSON(t, ts.URL+path, body, &sub); code != http.StatusAccepted {
			t.Fatalf("%s: valid names rejected: status %d", path, code)
		}
		if st := waitTerminal(t, ts.URL, sub.ID); st.State != StateDone {
			t.Fatalf("%s: job %s: %s", path, st.State, st.Error)
		}
	}
}

// TestCacheAddressesPinned pins the content addresses of whole-job
// cache entries. The keys hash the decoded request (options included),
// so reshaping removeRequest or simulateRequest would silently orphan
// every disk cache; this test makes such a change fail loudly instead.
// A deliberate engine-salt bump (fabric.EngineVersion) moves every key
// and must update these literals with it.
func TestCacheAddressesPinned(t *testing.T) {
	topo, traffic, routes := ringDesign(t)
	cases := []struct {
		name, path, key string
		body            map[string]any
	}{
		{"remove/defaults", "/v1/remove",
			"1cbbd879ae71453b1477870149c4bcac6b9017c825c8f802f748e56644cb3bb9",
			map[string]any{"topology": topo, "routes": routes}},
		// no_cache is set too: it must not take part in the address.
		{"remove/every-option", "/v1/remove",
			"1fdd2db502f8eb3840e96ee323b9e8bbd1ee6c864c290e1e3d2a442327d5f07d",
			map[string]any{"topology": topo, "routes": routes, "options": map[string]any{
				"vc_limit": 8, "max_iterations": 50, "policy": "forward", "selection": "first",
				"full_rebuild": true, "no_cache": true}}},
		{"simulate", "/v1/simulate",
			"aea2cc0ac5b129ff602f5d01e7994c841b282a102937115f6ed96a57f4378ca9",
			map[string]any{"topology": topo, "traffic": traffic, "routes": routes,
				"config": map[string]any{"max_cycles": 2000, "seed": 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Workers: 1, Cache: fabric.NewCache(fabric.CacheOptions{})})
			var sub submitResponse
			if code := postJSON(t, ts.URL+tc.path, tc.body, &sub); code != http.StatusAccepted {
				t.Fatalf("submit: status %d", code)
			}
			want := resultBytes(t, waitTerminal(t, ts.URL, sub.ID))
			resp, err := http.Get(ts.URL + "/v1/cache/" + tc.key)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/cache/%s: status %d — the job's cache address moved", tc.key, resp.StatusCode)
			}
			var doc any
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatal(err)
			}
			if canon, _ := json.Marshal(doc); !bytes.Equal(canon, want) {
				t.Fatalf("entry at the pinned key is not this job's result:\n got %s\nwant %s", canon, want)
			}
		})
	}
}

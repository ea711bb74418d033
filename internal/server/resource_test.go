package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/pkg/client"
)

// fakeView is the view of the fake resource kind below.
type fakeView struct {
	ID    string   `json:"id"`
	Hash  string   `json:"hash"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

func (v fakeView) status() (string, JobState) { return v.Hash, v.State }

// TestResourceCollectorPanicFailsRecord pins the collector's panic
// containment for every kind at once: a kind whose aggregate panics ends
// its record failed with "collector panic", closes done exactly once,
// frees the hash slot so an identical resubmission runs again, and leaves
// the server serving.
func TestResourceCollectorPanicFailsRecord(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var aggregates atomic.Int32
	tbl := newResources(s, resourceKind[string, fakeView]{
		prefix: "fak", noun: "fake", specNoun: "fake spec",
		prepare: func(spec string) (submission[string], error) {
			return submission[string]{spec: spec, hash: "hash-" + spec}, nil
		},
		aggregate: func(*resource[string], []cluster.JobData) (any, error) {
			aggregates.Add(1)
			panic("degenerate input")
		},
		view: func(r *resource[string], _ []MemberView) fakeView {
			return fakeView{ID: r.ID, Hash: r.Hash, State: r.State, Error: r.Err}
		},
		started: s.met.sweeps, hits: s.met.sweepCacheHits, terminal: s.met.sweepsDone,
		labels: []string{"fake"},
	})

	for run := 1; run <= 2; run++ {
		v, err := tbl.submit("x")
		if err != nil {
			t.Fatal(err)
		}
		if run == 2 && v.State != StateRunning {
			// The failed first record freed the hash: no coalescing onto it,
			// no cache hit, a fresh run.
			t.Fatalf("resubmission after a collector panic is %s, want a fresh running record", v.State)
		}
		done, ok := tbl.done(v.ID)
		if !ok {
			t.Fatalf("record %s unknown", v.ID)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("record %s never went terminal", v.ID)
		}
		got, _ := tbl.get(v.ID)
		if got.State != StateFailed || !strings.Contains(got.Error, "collector panic: degenerate input") {
			t.Fatalf("run %d ended %s (%q), want failed with the collector panic", run, got.State, got.Error)
		}
		if n := aggregates.Load(); n != int32(run) {
			t.Fatalf("aggregate ran %d times after %d submissions", n, run)
		}
	}
	tbl.s.mu.Lock()
	active := len(tbl.byHash)
	tbl.s.mu.Unlock()
	if active != 0 {
		t.Fatalf("%d hash slots still held after both records failed", active)
	}
	if v, ok := familyValue(t, s.Registry(), "sweeps_terminal_total", "fake", string(StateFailed)); !ok || v != 2 {
		t.Fatalf("sweeps_terminal_total{fake,failed} = %v (found=%v), want 2 (done closed once per record)", v, ok)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server stopped serving after a collector panic: %d", resp.StatusCode)
	}
}

// seedReports completes n small serial sedov jobs, each a distinct spec, so
// the store holds enough verification reports to cluster.
func seedReports(t *testing.T, s *Server, n int) {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		view, err := s.Submit(clusterFleetSpec(216, 1+0.01*float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateCompleted, 120*time.Second)
	}
}

// smallClusterSpec clusters a small sedov fleet on its physics features
// with a single proper component.
func smallClusterSpec() cluster.Spec {
	return cluster.Spec{
		Scenario: "sedov",
		Features: []string{
			cluster.GroupNorms, cluster.GroupPlateau,
			cluster.GroupConservation, cluster.GroupWatchdogs,
		},
		KLadder: []int{1},
	}
}

// jsonKeys GETs url and returns the sorted top-level keys of its JSON
// object, plus the sorted keys of the first element of each array-valued
// key listed in nested (as "key[].member").
func jsonKeys(t *testing.T, url string, nested ...string) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGetBody(t, url)), &obj); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	for _, k := range nested {
		var elems []map[string]json.RawMessage
		if err := json.Unmarshal(obj[k], &elems); err != nil || len(elems) == 0 {
			t.Fatalf("%s: %s is not a non-empty array of objects (%v)", url, k, err)
		}
		for m := range elems[0] {
			keys = append(keys, k+"[]."+m)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestResourceWireShape pins the JSON key sets of one completed view per
// resource kind and of each list envelope, as served before the kinds
// shared one lifecycle.
func TestResourceWireShape(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Store: st})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	exp, err := c.SubmitExperiment(ctx, sedovSweep(2, 150, 300))
	if err != nil {
		t.Fatal(err)
	}
	if exp, err = c.WaitExperiment(ctx, exp.ID); err != nil || exp.State != client.StateCompleted {
		t.Fatalf("experiment: %v %+v", err, exp)
	}
	scl, err := c.SubmitScaling(ctx, sedovScaling(2, 12, 24))
	if err != nil {
		t.Fatal(err)
	}
	if scl, err = c.WaitScaling(ctx, scl.ID); err != nil || scl.State != client.StateCompleted {
		t.Fatalf("scaling: %v %+v", err, scl)
	}
	seedReports(t, s, 5)
	cls, err := c.SubmitCluster(ctx, smallClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if cls, err = c.WaitCluster(ctx, cls.ID); err != nil || cls.State != client.StateCompleted {
		t.Fatalf("analysis: %v %+v", err, cls)
	}
	// A cache-hit resubmission adds a second record per kind, so a
	// one-item page carries nextCursor.
	if _, err := c.SubmitExperiment(ctx, sedovSweep(2, 150, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitScaling(ctx, sedovScaling(2, 12, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCluster(ctx, smallClusterSpec()); err != nil {
		t.Fatal(err)
	}

	sweepView := "cacheHit hash id members members[].hash members[].jobId members[].n members[].state members[].verify result state sweep"
	for _, tc := range []struct {
		path   string
		nested []string
		want   string
	}{
		{"/v1/experiments/" + exp.ID, []string{"members"}, sweepView},
		{"/v1/scaling/" + scl.ID, []string{"members"},
			"cacheHit hash id members members[].arm members[].cores members[].hash members[].jobId members[].n members[].state members[].verify result state sweep"},
		{"/v1/analytics/cluster/" + cls.ID, nil, "cacheHit hash id jobs result spec state"},
		{"/v1/experiments?limit=1", nil, "experiments nextCursor"},
		{"/v1/scaling?limit=1", nil, "nextCursor scaling"},
		{"/v1/analytics/cluster?limit=1", nil, "analyses nextCursor"},
	} {
		if got := strings.Join(jsonKeys(t, ts.URL+tc.path, tc.nested...), " "); got != tc.want {
			t.Errorf("%s keys:\n got %s\nwant %s", tc.path, got, tc.want)
		}
	}
}

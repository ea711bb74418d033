package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
)

// resource is one record of a sweep-like resource table: a convergence
// experiment, a scaling experiment, or a cluster analysis. Each resolves
// like a job — coalesced onto an active identical submission, served from a
// persisted result, or computed by a collector goroutine — and resources
// owns that lifecycle once for every kind. Mutable fields are guarded by
// the owning Server's mutex.
type resource[S any] struct {
	ID   string
	Spec S // canonical
	// Hash content-addresses the result: the canonical spec's hash (for an
	// analysis, the spec plus its sorted member report hashes).
	Hash  string
	State JobState
	// CacheHit marks a record whose persisted result was served without
	// running anything.
	CacheHit bool
	Err      string
	// Members are the fan-out jobs (none for an analysis).
	Members []member
	// Jobs is an analysis's enumerated dataset size (reports fed to the
	// fit, before per-job skips); zero for the sweep kinds.
	Jobs int
	// Result is the persisted result JSON, served byte-identically across
	// restarts.
	Result json.RawMessage

	done   chan struct{}
	doneAt time.Time
}

func (r *resource[S]) lifecycle() (JobState, time.Time) { return r.State, r.doneAt }
func (r *resource[S]) cacheHash() string                { return r.Hash }

// member binds one fan-out point to the job executing it.
type member struct {
	// MemberView is the static part of the member's view entry; State and
	// Verify are filled from the live job record on every snapshot.
	MemberView
	arm   int    // scaling arm index
	label string // names the member in failure messages ("N=216", "12 cores")
	done  <-chan struct{}
}

// MemberView is the member entry of an experiment or scaling view. State
// and Verify reflect the live job record and are omitted once the job has
// been pruned (the persisted result keeps the member hashes regardless).
type MemberView struct {
	Arm    string         `json:"arm,omitempty"`
	Cores  int            `json:"cores,omitempty"`
	N      int            `json:"n"`
	JobID  string         `json:"jobId"`
	Hash   string         `json:"hash"`
	State  JobState       `json:"state,omitempty"`
	Verify *VerifySummary `json:"verify,omitempty"`
}

// SweepView is an immutable snapshot of a sweep — a convergence or scaling
// experiment — for JSON responses.
type SweepView[S any] struct {
	ID       string       `json:"id"`
	Sweep    S            `json:"sweep"`
	Hash     string       `json:"hash"`
	State    JobState     `json:"state"`
	CacheHit bool         `json:"cacheHit"`
	Members  []MemberView `json:"members,omitempty"`
	// Result is the persisted aggregation JSON, served byte-identically
	// across restarts.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (v SweepView[S]) status() (string, JobState) { return v.Hash, v.State }

// sweepView is the view hook of the sweep kinds.
func sweepView[S any](r *resource[S], members []MemberView) SweepView[S] {
	return SweepView[S]{
		ID: r.ID, Sweep: r.Spec, Hash: r.Hash, State: r.State, CacheHit: r.CacheHit,
		Members: members, Result: r.Result, Error: r.Err,
	}
}

// resourceView is a kind's JSON snapshot; the shared handlers read the
// content hash and lifecycle state off it.
type resourceView interface {
	status() (hash string, state JobState)
}

// submission is a validated request: what a kind's prepare hook derives
// before the table resolves it.
type submission[S any] struct {
	spec S      // canonical
	hash string // content address of the result
	// corpus is an analysis's enumerated dataset, handed to aggregate; nil
	// for the sweep kinds, which aggregate their members' reports.
	corpus []cluster.JobData
}

// resourceKind is everything that differs between the resource kinds; the
// lifecycle itself is resources'.
type resourceKind[S any, V resourceView] struct {
	prefix   string // id prefix: exp, scl, cls
	noun     string // names the kind in 404/409 messages and logs
	specNoun string // names the request body in decode errors

	// prepare validates and canonicalizes a submission and hashes it.
	prepare func(S) (submission[S], error)
	// members fans a new submission out as jobs; nil for kinds that run
	// none.
	members func(S) ([]member, error)
	// aggregate folds the finished members (or the corpus) into the result
	// to persist.
	aggregate func(r *resource[S], corpus []cluster.JobData) (any, error)
	// applyLocked, when set, runs with mu held on every result a record
	// takes on: at completion and on a cache hit alike.
	applyLocked func(id string, raw []byte)
	// view snapshots a record, given its members' live view entries.
	view func(r *resource[S], members []MemberView) V
	// page wraps one listing page in the kind's envelope.
	page func(views []V, next string) any
	// submitError writes a rejected submission's error envelope.
	submitError func(http.ResponseWriter, error)

	// started, hits and terminal count submissions, cache hits and terminal
	// states in the kind's families, under its label values.
	started, hits, terminal *obs.CounterVec
	labels                  []string
}

// count increments one of the kind's counters; extra label values follow
// the kind's own.
func (k *resourceKind[S, V]) count(c *obs.CounterVec, extra ...string) {
	c.With(append(slices.Clip(k.labels), extra...)...).Inc()
}

// resources is one sweep-like resource table. It shares the owning
// Server's mu, so views can decorate members with live job state and
// pruneLocked sweeps every table under one lock.
type resources[S any, V resourceView] struct {
	s    *Server
	kind resourceKind[S, V]

	recs   map[string]*resource[S] // guarded by mu
	order  []string                // submission order for listing; guarded by mu
	byHash map[string]*resource[S] // active record per hash, for coalescing; guarded by mu
	cache  map[string][]byte       // completed results over the store; guarded by mu
	nextID int                     // guarded by mu
}

func newResources[S any, V resourceView](s *Server, kind resourceKind[S, V]) *resources[S, V] {
	return &resources[S, V]{
		s: s, kind: kind,
		recs:   map[string]*resource[S]{},
		byHash: map[string]*resource[S]{},
		cache:  map[string][]byte{},
	}
}

// submit resolves a submission like a job: an active identical one
// coalesces onto the running record, a persisted result (memory layer or
// store) completes instantly as a cache hit, and otherwise the kind's
// members run through the ordinary coalescing job path — members identical
// to stored or in-flight jobs never recompute — with a collector goroutine
// aggregating and persisting the result once the last member lands.
func (t *resources[S, V]) submit(spec S) (*V, error) {
	sub, err := t.kind.prepare(spec)
	if err != nil {
		return nil, err
	}
	s := t.s
	s.mu.Lock()
	s.pruneLocked()
	if active, ok := t.byHash[sub.hash]; ok {
		v := t.viewLocked(active)
		s.mu.Unlock()
		return &v, nil
	}
	s.mu.Unlock()

	// Resolve a completed result with the lock released (the store touches
	// disk).
	if raw, hit := t.resolve(sub.hash); hit {
		s.mu.Lock()
		defer s.mu.Unlock()
		if active, ok := t.byHash[sub.hash]; ok {
			v := t.viewLocked(active)
			return &v, nil
		}
		r := t.newLocked(sub)
		r.State = StateCompleted
		r.CacheHit = true
		r.Result = raw
		r.doneAt = s.now()
		close(r.done)
		if t.kind.applyLocked != nil {
			// A restart emptied whatever the result applied; a cache hit
			// re-applies it without recomputing.
			t.kind.applyLocked(r.ID, raw)
		}
		t.kind.count(t.kind.started)
		t.kind.count(t.kind.hits)
		t.kind.count(t.kind.terminal, string(StateCompleted))
		v := t.viewLocked(r)
		return &v, nil
	}

	// Submit the members first, outside the registration: duplicates
	// against active jobs, stored results, or a racing identical submission
	// all coalesce at the job layer, so this never double-computes. A
	// mid-ladder failure (queue full) aborts the submission but leaves the
	// enqueued members running as ordinary jobs — they may have coalesced
	// with other clients' work — and a retry coalesces straight onto them.
	var members []member
	if t.kind.members != nil {
		if members, err = t.kind.members(sub.spec); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if active, ok := t.byHash[sub.hash]; ok {
		// An identical submission raced in; its members coalesced with ours.
		v := t.viewLocked(active)
		s.mu.Unlock()
		return &v, nil
	}
	r := t.newLocked(sub)
	r.State = StateRunning
	r.Members = members
	t.byHash[sub.hash] = r
	v := t.viewLocked(r)
	s.mu.Unlock()
	t.kind.count(t.kind.started)

	go t.collect(r, sub.corpus)
	return &v, nil
}

// newLocked allocates and registers a record.
func (t *resources[S, V]) newLocked(sub submission[S]) *resource[S] {
	t.nextID++
	r := &resource[S]{
		ID:   fmt.Sprintf("%s-%06d", t.kind.prefix, t.nextID),
		Spec: sub.spec,
		Hash: sub.hash,
		Jobs: len(sub.corpus),
		done: make(chan struct{}),
	}
	t.recs[r.ID] = r
	t.order = append(t.order, r.ID)
	return r
}

// resolve consults the memory layer, then the persistent store
// (CRC-verified, outside the lock); store hits are promoted into memory.
func (t *resources[S, V]) resolve(hash string) ([]byte, bool) {
	t.s.mu.Lock()
	raw, ok := t.cache[hash]
	t.s.mu.Unlock()
	if ok {
		return raw, true
	}
	st := t.s.opts.Store
	if st == nil {
		return nil, false
	}
	b, _, err := st.ReadObject(hash)
	if err != nil {
		return nil, false
	}
	t.s.mu.Lock()
	t.cache[hash] = b
	t.s.mu.Unlock()
	return b, true
}

// collect waits for every member to reach a terminal state, aggregates the
// result and persists it content-addressed by the record hash.
func (t *resources[S, V]) collect(r *resource[S], corpus []cluster.JobData) {
	// Contain collector panics: a bad member report or a degenerate corpus
	// must fail this one record, never the process. Skip if the record
	// already went terminal (finish closes done exactly once).
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		select {
		case <-r.done:
			t.s.log.Error(t.kind.noun+" collector panicked after terminal state", "id", r.ID, "panic", v)
		default:
			t.finish(r, nil, fmt.Sprintf("collector panic: %v", v))
		}
	}()
	for _, m := range r.Members {
		select {
		case <-m.done:
		case <-t.s.ctx.Done():
			return // server shutting down; the record stays running
		}
	}
	res, err := t.kind.aggregate(r, corpus)
	if err != nil {
		t.finish(r, nil, err.Error())
		return
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.finish(r, nil, fmt.Sprintf("encoding result: %v", err))
		return
	}
	if st := t.s.opts.Store; st != nil {
		// Persisted like any result: content-addressed, CRC-verified on
		// read, subject to the same TTL/LRU policy.
		_ = st.Put(store.Meta{Hash: r.Hash}, raw)
	}
	t.finish(r, raw, "")
}

// finish terminates a record: completed with its result raw, or failed
// with msg. It frees the hash slot, so an identical resubmission runs (or
// cache-hits) afresh.
func (t *resources[S, V]) finish(r *resource[S], raw []byte, msg string) {
	state := StateCompleted
	if msg != "" {
		state = StateFailed
	}
	t.s.mu.Lock()
	r.State = state
	r.Err = msg
	r.Result = raw
	r.doneAt = t.s.now()
	delete(t.byHash, r.Hash)
	if raw != nil {
		t.cache[r.Hash] = raw
		if t.kind.applyLocked != nil {
			t.kind.applyLocked(r.ID, raw)
		}
	}
	close(r.done)
	t.s.mu.Unlock()
	t.kind.count(t.kind.terminal, string(state))
	if msg != "" {
		t.s.log.Error(t.kind.noun+" failed", "id", r.ID, "hash", r.Hash, "error", msg)
		return
	}
	t.s.log.Info(t.kind.noun+" completed", "id", r.ID, "hash", r.Hash, "members", len(r.Members))
}

// viewLocked snapshots a record, decorating members with their live job
// state where the job record still exists.
func (t *resources[S, V]) viewLocked(r *resource[S]) V {
	var members []MemberView
	for _, m := range r.Members {
		mv := m.MemberView
		if job, ok := t.s.jobs[m.JobID]; ok {
			mv.State = job.State
			mv.Verify = job.Verify
		}
		members = append(members, mv)
	}
	return t.kind.view(r, members)
}

// get returns a snapshot of the record, or false.
func (t *resources[S, V]) get(id string) (V, bool) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	r, ok := t.recs[id]
	if !ok {
		var zero V
		return zero, false
	}
	return t.viewLocked(r), true
}

// done returns a channel closed when the record reaches a terminal state.
func (t *resources[S, V]) done(id string) (<-chan struct{}, bool) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	r, ok := t.recs[id]
	if !ok {
		return nil, false
	}
	return r.done, true
}

// list returns one page of records in submission order, with the same
// cursor semantics as ListPage.
func (t *resources[S, V]) list(cursor string, limit int) ([]V, string) {
	limit = clampLimit(limit)
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.pruneLocked()
	out := make([]V, 0, limit)
	last, next := "", ""
	for _, id := range t.order {
		if cursor != "" && !cursorAfter(id, cursor) {
			continue
		}
		if len(out) == limit {
			next = last
			break
		}
		out = append(out, t.viewLocked(t.recs[id]))
		last = id
	}
	return out, next
}

// delete removes a terminal record; its persisted result stays addressable
// by hash (and whatever applyLocked did survives until superseded).
func (t *resources[S, V]) delete(id string) error {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return deleteTerminal(id, t.kind.noun, t.recs, &t.order, t.cache)
}

// pruneLocked drops terminal records older than cutoff.
func (t *resources[S, V]) pruneLocked(cutoff time.Time) {
	t.order = pruneTable(t.order, t.recs, t.cache, cutoff)
}

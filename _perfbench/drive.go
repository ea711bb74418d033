package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/part"
	"repro/internal/scenario"
	"repro/pkg/client"
)

// pollInterval is how often a waiting miss polls its job's state; it bounds
// the resolution of job_s.
const pollInterval = 10 * time.Millisecond

// newClient returns a pkg/client over a transport capped at conns
// connections: the generator's whole concurrency budget.
func newClient(base string, conns int) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithPollInterval(pollInterval))
}

// persistedReport is the part of a job's persisted report JSON the
// benchmark checks and reads: the verify verdict and the lifecycle spans.
type persistedReport struct {
	Pass      bool `json:"pass"`
	Particles int  `json:"particles"`
	Spans     *struct {
		Phases []struct {
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
	} `json:"spans"`
}

func (r *persistedReport) phase(name string) float64 {
	if r.Spans == nil {
		return 0
	}
	for _, p := range r.Spans.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// corpusEntry is a completed result the cache-hit requests replay.
type corpusEntry struct {
	spec     scenario.JobSpec
	snapshot []byte
}

// allocs is a runtime.MemStats delta over one operation.
type allocs struct{ mallocs, bytes float64 }

// runner drives one workload against one server through pkg/client and
// applies the correctness gate to every response.
type runner struct {
	w  workload
	cl *client.Client

	// Traced-run hooks; all nil/false in an untraced run. With tracing set,
	// every other operation of each kind is traced (all of them with
	// traceAll); the rest are the in-run untraced control. memStats records
	// MemStats deltas around traced operations, which is valid only while
	// operations do not overlap.
	tr       *tracer
	tracing  bool
	traceAll bool
	memStats bool
	missN    int
	hitN     int

	mu            sync.Mutex
	attempted     int
	failed        int
	errs          []string
	jobS          []float64 // miss latency, s
	jobSTraced    []float64
	jobSControl   []float64
	hitMS         []float64 // hit latency, ms
	lateMS        []float64 // due time to first connection, ms
	reports       []persistedReport
	particleSteps float64
	firstDue      time.Time
	lastDone      time.Time
	submitMS      []float64
	missAllocs    []allocs
	hitAllocs     []allocs
	trackBytes    []float64
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// opContext attaches a connection-acquisition probe to ctx: the first
// connection obtained fixes the operation's lateness against its due time.
func (r *runner) opContext(ctx context.Context, due time.Time) context.Context {
	var once sync.Once
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) {
			once.Do(func() {
				late := time.Since(due).Seconds() * 1e3
				r.mu.Lock()
				r.lateMS = append(r.lateMS, late)
				r.mu.Unlock()
			})
		},
	})
}

// traced decides whether the next operation counted by n is traced.
func (r *runner) traced(n *int) bool {
	if !r.tracing {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := *n
	*n++
	return r.traceAll || k%2 == 0
}

func (r *runner) begin(due time.Time) {
	r.mu.Lock()
	r.attempted++
	if r.firstDue.IsZero() || due.Before(r.firstDue) {
		r.firstDue = due
	}
	r.mu.Unlock()
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// miss submits a fresh job, waits for it and fetches its report; the
// latency runs from due until the report is in hand. With wantSnapshot it
// also downloads the result (outside the timed window) for later hits.
func (r *runner) miss(ctx context.Context, i int, spec scenario.JobSpec, due time.Time, wantSnapshot bool) ([]byte, bool) {
	r.begin(due)
	traced := r.traced(&r.missN)
	var m0 runtime.MemStats
	if traced && r.memStats {
		m0 = readMem()
	}
	ctx = r.opContext(ctx, due)
	root := -1
	if traced {
		root = r.tr.begin("job", "", -1)
	}
	sp := r.tr.beginIf(traced, "server.submit", "", root)
	t0 := time.Now()
	job, err := r.cl.Submit(ctx, spec)
	submit := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		r.fail("miss %d: submit: %v", i, err)
		r.tr.end(root)
		return nil, false
	}
	r.tr.setJob(root, job.ID)
	r.tr.setJob(sp, job.ID)
	if job.CacheHit {
		r.fail("miss %d: fresh spec %s served as a cache hit", i, job.Hash)
		r.tr.end(root)
		return nil, false
	}
	sp = r.tr.beginIf(traced, "server.wait", job.ID, root)
	final, err := r.cl.WaitJob(ctx, job.ID)
	r.tr.end(sp)
	if err != nil || final.State != "completed" {
		state, msg := "", ""
		if final != nil {
			state, msg = final.State, final.Error
		}
		r.fail("miss %d (%s): state %q %s %v", i, job.ID, state, msg, err)
		r.tr.end(root)
		return nil, false
	}
	sp = r.tr.beginIf(traced, "server.report", job.ID, root)
	raw, err := r.cl.RawMetrics(ctx, job.ID)
	r.tr.end(sp)
	done := time.Now()
	r.tr.end(root)
	if err != nil {
		r.fail("miss %d (%s): report: %v", i, job.ID, err)
		return nil, false
	}
	var rep persistedReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		r.fail("miss %d (%s): decoding report: %v", i, job.ID, err)
		return nil, false
	}
	if !rep.Pass {
		r.fail("miss %d (%s): persisted verify report does not pass", i, job.ID)
		return nil, false
	}
	if rep.Particles != r.w.N {
		r.fail("miss %d (%s): %d particles, requested %d", i, job.ID, rep.Particles, r.w.N)
		return nil, false
	}
	if traced && r.memStats {
		m1 := readMem()
		r.mu.Lock()
		r.missAllocs = append(r.missAllocs, allocs{
			float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)})
		r.mu.Unlock()
	}
	var snap []byte
	if wantSnapshot {
		if snap, err = r.cl.Snapshot(ctx, job.ID); err != nil {
			r.fail("miss %d (%s): snapshot: %v", i, job.ID, err)
			return nil, false
		}
		var ps part.Set
		if _, err := ps.ReadFrom(bytes.NewReader(snap)); err != nil || ps.NLocal != r.w.N {
			r.fail("miss %d (%s): snapshot decodes to %d particles (requested %d): %v", i, job.ID, ps.NLocal, r.w.N, err)
			return nil, false
		}
	}
	if r.tr != nil {
		if track, err := r.cl.RawTelemetry(ctx, job.ID); err == nil {
			r.mu.Lock()
			r.trackBytes = append(r.trackBytes, float64(len(track)))
			r.mu.Unlock()
		}
	}
	lat := done.Sub(due).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobS = append(r.jobS, lat)
	if traced {
		r.jobSTraced = append(r.jobSTraced, lat)
	} else if r.tracing {
		r.jobSControl = append(r.jobSControl, lat)
	}
	r.submitMS = append(r.submitMS, submit.Seconds()*1e3)
	r.reports = append(r.reports, rep)
	r.particleSteps += float64(rep.Particles * spec.Steps)
	if done.After(r.lastDone) {
		r.lastDone = done
	}
	return snap, true
}

// hit resubmits a completed spec and downloads its snapshot and report; the
// latency runs from due until both are in hand. The snapshot must be the
// bytes of the miss that produced it.
func (r *runner) hit(ctx context.Context, i int, ce corpusEntry, due time.Time) bool {
	r.begin(due)
	traced := r.traced(&r.hitN)
	var m0 runtime.MemStats
	if traced && r.memStats {
		m0 = readMem()
	}
	ctx = r.opContext(ctx, due)
	root := r.tr.beginIf(traced, "hit", "", -1)
	sp := r.tr.beginIf(traced, "server.submit", "", root)
	t0 := time.Now()
	job, err := r.cl.Submit(ctx, ce.spec)
	submit := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		r.tr.end(root)
		r.fail("hit %d: submit: %v", i, err)
		return false
	}
	r.tr.setJob(root, job.ID)
	r.tr.setJob(sp, job.ID)
	if !job.CacheHit || job.State != "completed" {
		r.tr.end(root)
		r.fail("hit %d (%s): resubmission not served from cache (state %q)", i, job.ID, job.State)
		return false
	}
	sp = r.tr.beginIf(traced, "server.snapshot", job.ID, root)
	snap, err := r.cl.Snapshot(ctx, job.ID)
	r.tr.end(sp)
	if err != nil {
		r.tr.end(root)
		r.fail("hit %d (%s): snapshot: %v", i, job.ID, err)
		return false
	}
	sp = r.tr.beginIf(traced, "server.report", job.ID, root)
	raw, err := r.cl.RawMetrics(ctx, job.ID)
	r.tr.end(sp)
	done := time.Now()
	r.tr.end(root)
	if err != nil {
		r.fail("hit %d (%s): report: %v", i, job.ID, err)
		return false
	}
	if !bytes.Equal(snap, ce.snapshot) {
		r.fail("hit %d (%s): snapshot differs from the bytes of the miss that produced it", i, job.ID)
		return false
	}
	var rep persistedReport
	if err := json.Unmarshal(raw, &rep); err != nil || !rep.Pass {
		r.fail("hit %d (%s): persisted report does not pass (%v)", i, job.ID, err)
		return false
	}
	if traced && r.memStats {
		m1 := readMem()
		r.mu.Lock()
		r.hitAllocs = append(r.hitAllocs, allocs{
			float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)})
		r.mu.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hitMS = append(r.hitMS, done.Sub(due).Seconds()*1e3)
	r.submitMS = append(r.submitMS, submit.Seconds()*1e3)
	return true
}

// fillCorpus runs the open-loop workload's corpus jobs to completion (both
// workers busy) and keeps their snapshots for the hits to compare against.
func (r *runner) fillCorpus(ctx context.Context, gen *specGen) ([]corpusEntry, error) {
	corpus := make([]corpusEntry, r.w.Corpus)
	var wg sync.WaitGroup
	errc := make(chan error, len(corpus))
	for i := range corpus {
		spec, _, err := gen.next()
		if err != nil {
			return nil, err
		}
		corpus[i].spec = spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := r.cl.Submit(ctx, spec)
			if err == nil {
				job, err = r.cl.WaitJob(ctx, job.ID)
			}
			if err == nil && job.State != "completed" {
				err = fmt.Errorf("corpus job %s ended %s: %s", job.ID, job.State, job.Error)
			}
			if err == nil && (job.Verify == nil || !job.Verify.Pass) {
				err = fmt.Errorf("corpus job %s: verify report does not pass", job.ID)
			}
			var snap []byte
			if err == nil {
				snap, err = r.cl.Snapshot(ctx, job.ID)
			}
			if err == nil {
				var ps part.Set
				if _, derr := ps.ReadFrom(bytes.NewReader(snap)); derr != nil || ps.NLocal != r.w.N {
					err = fmt.Errorf("corpus job %s: snapshot decodes to %d particles (requested %d): %v",
						job.ID, ps.NLocal, r.w.N, derr)
				}
			}
			if err != nil {
				errc <- err
				return
			}
			corpus[i].snapshot = snap
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	return corpus, nil
}

// driveClosed runs the closed-loop discipline: one client submits a fresh
// job, waits for it, then replays it HitsPerMiss times as cache hits. It
// stops once at least MinMisses jobs have run and another round, as long
// as the last one, would overrun the time budget.
func (r *runner) driveClosed(ctx context.Context, gen *specGen, budget time.Duration) error {
	start := time.Now()
	op := 0
	var round time.Duration
	for i := 0; i < r.w.MinMisses || time.Since(start)+round <= budget; i++ {
		roundStart := time.Now()
		if err := ctx.Err(); err != nil {
			return err
		}
		spec, _, err := gen.next()
		if err != nil {
			return err
		}
		snap, ok := r.miss(ctx, op, spec, time.Now(), true)
		op++
		if !ok {
			continue
		}
		ce := corpusEntry{spec: spec, snapshot: snap}
		for h := 0; h < r.w.HitsPerMiss; h++ {
			r.hit(ctx, op, ce, time.Now())
			op++
		}
		round = time.Since(roundStart)
	}
	return nil
}

// driveOpen runs the open-loop discipline: every scheduled arrival is
// issued at its due time on its own goroutine (the transport caps the
// connections), and is timed from its due time.
func (r *runner) driveOpen(ctx context.Context, gen *specGen, corpus []corpusEntry, evs []event) error {
	start := time.Now()
	var wg sync.WaitGroup
	for i, ev := range evs {
		due := start.Add(ev.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if err := ctx.Err(); err != nil {
			break
		}
		if ev.Hit {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.hit(ctx, i, corpus[ev.Corpus], due)
			}()
			continue
		}
		spec, _, err := gen.next()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.miss(ctx, i, spec, due, false)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// throughput is particles × steps of the completed misses per second of
// measured wall time (first due to last completion).
func (r *runner) throughput() float64 {
	wall := r.lastDone.Sub(r.firstDue).Seconds()
	if wall <= 0 {
		return 0
	}
	return r.particleSteps / wall
}

// promHistogram reads a histogram child's sum and count out of a
// Prometheus text exposition.
func promHistogram(text, family, labels string) (sum, count float64, err error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	found := 0
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		var dst *float64
		switch {
		case !ok:
			continue
		case name == family+"_sum"+labels:
			dst = &sum
		case name == family+"_count"+labels:
			dst = &count
		default:
			continue
		}
		v, perr := strconv.ParseFloat(value, 64)
		if perr != nil {
			return 0, 0, perr
		}
		*dst = v
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("histogram %s%s not found", family, labels)
	}
	return sum, count, nil
}

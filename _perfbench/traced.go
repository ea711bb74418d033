package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// exactCounts are the work counts that two traced runs with one workload
// and seed should repeat exactly.
var exactCounts = map[string]bool{
	"sph.interactions": true, "sph.iad_fallbacks": true,
	"gravity.node_interactions": true, "gravity.pair_interactions": true,
	"domain.ghosts_per_step": true, "part.snapshot_bytes": true,
	"ft.checkpoint_bytes": true, "store.bytes_written": true,
}

// inProcess is a server.Server behind a loopback listener in this process,
// so the traced run can read MemStats deltas of the serving path.
type inProcess struct {
	srv   *server.Server
	st    *store.Store
	hs    *http.Server
	base  string
	errc  chan error
	flags []string
}

func startInProcess(dir string, w workload) (*inProcess, error) {
	storeDir := filepath.Join(dir, "store")
	dataDir := filepath.Join(dir, "data")
	for _, d := range []string{storeDir, dataDir} {
		if err := requireEmptyDir(d); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(storeDir, store.Options{TTL: 7 * 24 * time.Hour})
	if err != nil {
		return nil, err
	}
	if st.Len() != 0 || st.Quarantined() != 0 {
		return nil, fmt.Errorf("refusing to run: the store at %s is not empty", storeDir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{
		Workers:         2,
		DataDir:         dataDir,
		CheckpointEvery: w.checkpointEvery(),
		Store:           st,
		JobTTL:          7 * 24 * time.Hour,
	})
	p := &inProcess{
		srv: srv, st: st, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), errc: make(chan error, 1),
		flags: []string{"in-process", "workers=2", fmt.Sprintf("checkpoint-every=%d", w.checkpointEvery())},
	}
	go func() { p.errc <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inProcess) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(ctx)
	<-p.errc
	p.srv.Close()
}

// runTraced is the traced run: the workload's own traffic against an
// in-process server (every other operation traced, the rest kept as the
// untraced control), then the layer probes on the workload's first job.
func runTraced(ctx context.Context, opt options, w workload, dir string) (*outcome, error) {
	out := &outcome{env: map[string]any{"mode": "traced"}}
	tr := newTracer()
	p, err := startInProcess(filepath.Join(dir, "server"), w)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	out.env["server_flags"] = p.flags

	budget := time.Duration(opt.seconds) * time.Second / 2
	seen := map[string]bool{}
	r := &runner{w: w, cl: newClient(p.base, opt.conns), tr: tr, tracing: true, memStats: w.Loop == closedLoop}
	if w.Loop == closedLoop {
		r.w.MinMisses = 2 // one traced job and one control job at least
		err = r.driveClosed(ctx, newSpecGen(w, opt.seed, streamMisses, seen), budget)
	} else {
		var corpus []corpusEntry
		corpus, err = r.fillCorpus(ctx, newSpecGen(w, opt.seed, streamCorpus, seen))
		if err == nil {
			err = r.driveOpen(ctx, newSpecGen(w, opt.seed, streamMisses, seen), corpus, schedule(w, opt.seed, budget))
		}
		if err == nil {
			// Allocation deltas need operations that do not overlap: a short
			// sequential pass over the same corpus, every operation traced.
			seq := &runner{w: w, cl: r.cl, tr: tr, tracing: true, traceAll: true, memStats: true}
			gen := newSpecGen(w, opt.seed+1<<32, streamMisses, seen)
			for i := 0; i < 3 && err == nil; i++ {
				spec, _, gerr := gen.next()
				err = gerr
				if err == nil {
					seq.miss(ctx, i, spec, time.Now(), false)
				}
			}
			for i := 0; i < 20 && err == nil; i++ {
				seq.hit(ctx, i, corpus[i%len(corpus)], time.Now())
			}
			r.missAllocs, r.hitAllocs = seq.missAllocs, seq.hitAllocs
			r.attempted += seq.attempted
			r.failed += seq.failed
			r.errs = append(r.errs, seq.errs...)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("driving %s: %w", w.Name, err)
	}
	out.attempted, out.failed, out.errs = r.attempted, r.failed, r.errs
	if len(r.jobSTraced) == 0 || len(r.jobSControl) == 0 || len(r.hitAllocs) == 0 || len(r.missAllocs) == 0 {
		out.failf("traced run lacks samples: %d traced jobs, %d control jobs, %d/%d allocation probes",
			len(r.jobSTraced), len(r.jobSControl), len(r.missAllocs), len(r.hitAllocs))
	}

	// server: round trips, lifecycle spans persisted in each report, and
	// the persist phase from /metricsz.
	out.add("server.submit_ms", "ms", median(r.submitMS), len(r.submitMS))
	for _, ph := range []struct{ metric, phase string }{
		{"server.queue_wait_s", "queue-wait"},
		{"server.run_s", "run"},
		{"server.verify_s", "verify"},
		{"server.checkpoint_s", "checkpoint"},
	} {
		var xs []float64
		for _, rep := range r.reports {
			xs = append(xs, rep.phase(ph.phase))
		}
		out.add(ph.metric, "s", median(xs), len(xs))
	}
	persist, n, err := persistSeconds(ctx, p.base)
	if err != nil {
		return nil, err
	}
	out.add("server.persist_s", "s", persist, n)
	var missMallocs, missBytes, hitMallocs []float64
	for _, a := range r.missAllocs {
		missMallocs, missBytes = append(missMallocs, a.mallocs), append(missBytes, a.bytes)
	}
	for _, a := range r.hitAllocs {
		hitMallocs = append(hitMallocs, a.mallocs)
	}
	out.add("server.allocs_per_job", "count", median(missMallocs), len(missMallocs))
	out.add("server.alloc_bytes_per_job", "bytes", median(missBytes), len(missBytes))
	out.add("server.allocs_per_hit", "count", median(hitMallocs), len(hitMallocs))

	// store and telemetry, as the served jobs left them.
	st := p.st.Stats()
	if st.Quarantined != 0 {
		out.failf("store quarantined %d objects", st.Quarantined)
	}
	out.add("store.hit_ratio", "ratio", st.HitRate, int(st.Hits+st.Misses))
	out.add("store.bytes_written", "bytes", float64(st.Bytes)/float64(st.Entries), st.Entries)
	out.add("telemetry.track_bytes", "bytes", median(r.trackBytes), len(r.trackBytes))
	out.add("loadgen.late_ms_p99", "ms", quantile(r.lateMS, 0.99), len(r.lateMS))
	out.add("loadgen.sent", "count", float64(r.attempted), 1)
	control := median(r.jobSControl)
	out.add("trace.overhead_frac", "ratio", (median(r.jobSTraced)-control)/control,
		len(r.jobSTraced)+len(r.jobSControl))

	if err := probeLayers(ctx, w, opt.seed, tr, filepath.Join(dir, "probe"), out); err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	for _, m := range out.metrics {
		if exactCounts[m.name] {
			counts[m.name] = m.value
		}
	}
	findings := checkRepeat(filepath.Join(opt.work, "counts"), w.Name, opt.seed, counts)
	out.env["count_findings"] = findings
	out.env["counts"] = counts

	traceDir := filepath.Join(opt.work, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.Name, opt.seed))); err != nil {
		return nil, err
	}
	return out, nil
}

// persistSeconds reads the mean persist phase out of /metricsz.
func persistSeconds(ctx context.Context, base string) (float64, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metricsz", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	sum, count, err := promHistogram(string(b), "job_phase_seconds", `{phase="persist"}`)
	if err != nil || count == 0 {
		return 0, 0, fmt.Errorf("reading persist phase from /metricsz: %v", err)
	}
	return sum / count, int(count), nil
}

// checkRepeat compares this run's exact-repeat work counts with those an
// earlier run of the same workload and seed recorded, returning one
// finding per count that did not repeat; the first run records them.
func checkRepeat(dir, workload string, seed int64, counts map[string]float64) []string {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	findings := []string{}
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if json.Unmarshal(b, &prev) == nil {
			for name, v := range counts {
				if pv, ok := prev[name]; ok && pv != v {
					findings = append(findings, fmt.Sprintf("%s did not repeat: %v then %v", name, pv, v))
				}
			}
		}
		return findings
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		b, _ := json.Marshal(counts)
		_ = os.WriteFile(path, b, 0o644)
	}
	return findings
}

// Command perfbench is the repository's end-to-end benchmark. It starts
// sphexa-serve as its own process over an empty store and data directory,
// drives it over the /v1 HTTP API through pkg/client from this single
// generator process, checks every result, and prints the end-to-end
// metrics. With -trace 1 it instead runs the same workload in-process,
// times calls into each layer's public functions, and prints the
// per-layer metrics.
//
//	bash _perfbench/run.sh --workload evrard-serial --seed 1 --seconds 30 --trace 0
//	bash _perfbench/run.sh --selftest
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runTimeout bounds one run: the caller requires an exit within 180 s.
const runTimeout = 150 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	work     string
	serveBin string
	conns    int
}

// metric is one reported figure; samples is how many observations its
// value summarizes.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// outcome is one run's verdict and figures.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	metrics   []metric
	env       map[string]any
}

func (o *outcome) add(name, unit string, value float64, samples int) {
	o.metrics = append(o.metrics, metric{name, unit, value, samples})
}

func (o *outcome) failf(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func main() {
	var opt options
	var traceFlag int
	var selftest bool
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated job specs and arrival schedule")
	flag.IntVar(&opt.seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the in-process traced run and prints per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "repository root")
	flag.StringVar(&opt.work, "work", ".bench_build", "scratch directory for servers, stores and results")
	flag.StringVar(&opt.serveBin, "serve", "", "sphexa-serve binary")
	flag.IntVar(&opt.conns, "conns", min(2, runtime.NumCPU()), "generator connections (at most nproc)")
	flag.BoolVar(&selftest, "selftest", false, "run every workload at tiny sizes and check the benchmark itself")
	flag.Parse()
	opt.trace = traceFlag == 1

	if selftest {
		if err := runSelftest(opt); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench selftest: ok")
		return
	}
	w, err := workloadByName(opt.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := runOnce(opt, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct, err := report(os.Stdout, opt, w, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(3)
	}
}

// runOnce applies the pre-flight checks and runs one workload.
func runOnce(opt options, w workload) (*outcome, error) {
	if opt.conns < 1 || opt.conns > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing to run with %d generator connections on %d CPUs", opt.conns, runtime.NumCPU())
	}
	if opt.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if !opt.trace {
		if _, err := os.Stat(opt.serveBin); err != nil {
			return nil, fmt.Errorf("sphexa-serve binary: %w", err)
		}
	}
	dir := filepath.Join(opt.work, "run", fmt.Sprintf("%s-seed%d-trace%t-%d", w.Name, opt.seed, opt.trace, os.Getpid()))
	if err := requireEmptyDir(dir); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	steal0, total0 := cpuSteal()
	var out *outcome
	var err error
	if opt.trace {
		out, err = runTraced(ctx, opt, w, dir)
	} else {
		out, err = runServed(ctx, opt, w, dir)
	}
	if err != nil {
		return nil, err
	}
	out.env["nproc"] = runtime.NumCPU()
	out.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.env["go"] = runtime.Version()
	out.env["commit"] = commitOf(opt.root)
	out.env["conns"] = opt.conns
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor gave this machine's CPUs to other guests:
		// the first suspect when a run reads slow.
		out.env["cpu_steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	if out.failed == 0 {
		// Keep the directory of a failed run for inspection only.
		_ = os.RemoveAll(dir)
	}
	return out, nil
}

// runServed is the untraced end-to-end run against a sphexa-serve process.
func runServed(ctx context.Context, opt options, w workload, dir string) (*outcome, error) {
	out := &outcome{env: map[string]any{}}
	seen := map[string]bool{}
	var sp *serverProc
	var corpus []corpusEntry
	var setups []float64
	for rep := 0; rep < w.SetupReps; rep++ {
		if sp != nil {
			sp.stop()
		}
		repDir := filepath.Join(dir, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		var err error
		sp, err = startServer(opt.serveBin, repDir, w, 2)
		if err != nil {
			return nil, err
		}
		if w.Loop == openLoop {
			r := &runner{w: w, cl: newClient(sp.base, opt.conns)}
			corpus, err = r.fillCorpus(ctx, newSpecGen(w, opt.seed, streamCorpus, map[string]bool{}))
			if err != nil {
				sp.stop()
				return nil, fmt.Errorf("filling the hit corpus: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < w.SetupReps-1 {
			sp.stop()
			sp = nil
			_ = os.RemoveAll(repDir)
		}
	}
	defer sp.stop()
	out.env["server_flags"] = sp.flags
	for _, ce := range corpus {
		h, _ := ce.spec.Hash()
		seen[h] = true
	}

	r := &runner{w: w, cl: newClient(sp.base, opt.conns)}
	budget := time.Duration(opt.seconds) * time.Second
	var err error
	if w.Loop == closedLoop {
		err = r.driveClosed(ctx, newSpecGen(w, opt.seed, streamMisses, seen), budget)
	} else {
		err = r.driveOpen(ctx, newSpecGen(w, opt.seed, streamMisses, seen), corpus, schedule(w, opt.seed, budget))
	}
	if err != nil {
		return nil, fmt.Errorf("driving %s: %w", w.Name, err)
	}
	st, err := r.cl.StoreStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading store stats: %w", err)
	}
	if st.Quarantined != 0 {
		r.fail("store quarantined %d objects", st.Quarantined)
	}
	rss, err := sp.peakRSSMB()
	if err != nil {
		return nil, err
	}

	out.attempted, out.failed, out.errs = r.attempted, r.failed, r.errs
	out.add("setup_s", "s", median(setups), len(setups))
	out.add("job_s_p50", "s", median(r.jobS), len(r.jobS))
	out.add("particle_steps_per_s", "1/s", r.throughput(), len(r.jobS))
	out.add("hit_ms_p50", "ms", median(r.hitMS), len(r.hitMS))
	out.add("peak_rss_mb", "MB", rss, 1)
	if out.attempted > 0 {
		out.env["failed_frac"] = float64(out.failed) / float64(out.attempted)
	}
	out.env["late_ms_p99"] = quantile(r.lateMS, 0.99)
	out.env["hit_ms_p90"] = quantile(r.hitMS, 0.9)
	out.env["hit_ms_p99"] = quantile(r.hitMS, 0.99)
	out.env["job_s"] = r.jobS
	out.env["store_hit_rate"] = st.HitRate
	if len(r.jobS) == 0 || len(r.hitMS) == 0 {
		out.failf("no completed %s", map[bool]string{true: "misses", false: "hits"}[len(r.jobS) == 0])
	}
	return out, nil
}

// report prints the environment record, a table of every metric with its
// unit and sample count, and (last) the JSON verdict, which it returns; it
// also keeps the full record under the work directory.
func report(w io.Writer, opt options, wl workload, out *outcome) (bool, error) {
	env, err := json.Marshal(out.env)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "env %s\n", env)
	for _, e := range out.errs {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	fmt.Fprintf(w, "%-28s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	type rec struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	full := map[string]rec{}
	correct := out.failed == 0
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %-6s %d\n", m.name, m.value, m.unit, m.samples)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			correct = false
			fmt.Fprintf(w, "FAIL metric %s has no finite value\n", m.name)
			continue
		}
		metrics[m.name] = jm{m.value, m.unit}
		full[m.name] = rec{m.value, m.unit, m.samples}
	}
	resDir := filepath.Join(opt.work, "results")
	if err := os.MkdirAll(resDir, 0o755); err == nil {
		b, _ := json.MarshalIndent(map[string]any{
			"workload": wl.Name, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
			"correct": correct, "attempted": out.attempted, "failed": out.failed,
			"errors": out.errs, "metrics": full, "env": out.env,
		}, "", " ")
		name := fmt.Sprintf("%s-seed%d-trace%t.json", wl.Name, opt.seed, opt.trace)
		_ = os.WriteFile(filepath.Join(resDir, name), b, 0o644)
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, max(out.attempted, 1), out.failed, metrics})
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return correct, err
}

// cpuSteal reads the steal and total jiffies of all CPUs from /proc/stat
// (zeros where it is unavailable).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commitOf names the code under test: the git commit when the checkout is
// a repository, otherwise a digest of its Go sources.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

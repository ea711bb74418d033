package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// knownNonRepeat lists the work counts that are expected not to repeat
// exactly for a seed, and why; every other count must repeat.
var knownNonRepeat = map[string]string{
	"store.bytes_written": "persisted reports embed wall-clock lifecycle spans, whose decimal width varies",
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// tiny shrinks a workload to self-test size while keeping its shape.
func tiny(w workload) workload {
	// The engine workloads keep a few thousand particles: below that a
	// step lasts milliseconds and scheduling noise swamps the phase
	// coverage check.
	switch w.Scenario {
	case "evrard":
		w.N, w.Neighbors = 3016, 50
	case "square":
		w.N, w.Neighbors = 2744, 50
	case "sod":
		w.N, w.Neighbors = 500, 30
	}
	w.Steps = 6
	w.HitsPerMiss, w.MinMisses, w.SetupReps = 3, 2, 2
	w.Corpus, w.MissRate, w.HitRate = 3, 2, 10
	return w
}

// runSelftest runs every workload at tiny sizes, untraced once and traced
// twice with one seed, and checks the benchmark itself: every metric
// BENCHMARK.json names is emitted, finite and in its unit; the
// outside-timed engine phases cover at least 90% of core.step_s on the
// engine workloads; and the work counts repeat.
func runSelftest(opt options) error {
	b, err := os.ReadFile(filepath.Join(opt.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	opt.work = filepath.Join(opt.work, "selftest")
	if err := os.RemoveAll(opt.work); err != nil {
		return err
	}
	opt.seconds = 2
	var problems []string
	for _, w := range workloads {
		w = tiny(w)
		for run, traced := range []bool{false, true, true} {
			opt.trace = traced
			out, err := runOnce(opt, w)
			if err != nil {
				return fmt.Errorf("%s (trace %t): %w", w.Name, traced, err)
			}
			for _, e := range out.errs {
				problems = append(problems, fmt.Sprintf("%s: %s", w.Name, e))
			}
			got := map[string]metric{}
			for _, m := range out.metrics {
				got[m.name] = m
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			named := map[string]bool{}
			for _, m := range want {
				named[m.Name] = true
			}
			for name := range got {
				if !named[name] {
					problems = append(problems, fmt.Sprintf("%s: metric %s is not named in BENCHMARK.json", w.Name, name))
				}
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					problems = append(problems, fmt.Sprintf("%s: metric %s not emitted", w.Name, m.Name))
				case g.unit != m.Unit:
					problems = append(problems, fmt.Sprintf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, m.Name, g.unit, m.Unit))
				case math.IsNaN(g.value) || math.IsInf(g.value, 0):
					problems = append(problems, fmt.Sprintf("%s: metric %s has no finite value", w.Name, m.Name))
				}
			}
			if !traced {
				continue
			}
			if c, ok := got["trace.phase_coverage"]; ok && w.Loop == closedLoop && c.value < 0.9 {
				problems = append(problems, fmt.Sprintf("%s: engine phases cover %.3f of core.step_s, want >= 0.9", w.Name, c.value))
			}
			fmt.Printf("selftest %s trace: coverage %.3f, phase agreement %.3f\n", w.Name,
				got["trace.phase_coverage"].value, got["trace.phase_agreement"].value)
			if run == 2 {
				findings, _ := out.env["count_findings"].([]string)
				for _, f := range findings {
					name, _, _ := strings.Cut(f, " ")
					if why, ok := knownNonRepeat[name]; ok {
						fmt.Printf("selftest %s finding (known: %s): %s\n", w.Name, why, f)
						continue
					}
					problems = append(problems, fmt.Sprintf("%s: work count %s", w.Name, f))
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

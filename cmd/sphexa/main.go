// Command sphexa runs a single SPH-EXA mini-app simulation on the local
// machine: one of the paper's test cases (or a Sedov blast, Sod tube, ...),
// with any kernel/gradient/volume-element/time-stepping combination from
// Table 2, optional checkpoint/restart, and silent-data-corruption
// detection. The run executes through the same chunked checkpoint/resume
// loop as the job server (internal/runloop), so SIGINT/SIGTERM interrupt
// cleanly at a step boundary — the state is synchronized, checkpointed
// (when enabled), and the conservation summary still prints — and
// -restart resumes from the newest checkpoint toward the same -steps
// total.
//
// With -verify, the final snapshot is scored against the scenario's
// analytic reference solution (internal/analytic) and the quantitative
// verification report (internal/verify) prints after the run; the exit
// status is non-zero if the registered acceptance thresholds fail.
//
// With -trace-out, the run's measured wall-clock phase timeline (per-step
// engine phases A-J plus the restore/run/checkpoint loop spans) is written
// as Chrome trace-event JSON, loadable in Perfetto or chrome://tracing:
//
//	sphexa -scenario sod -n 4000 -steps 10 -trace-out sod.trace.json
//
// Per the mini-app design guidance the paper cites [35], the interface is a
// handful of command-line flags; workloads come from the scenario registry
// (internal/scenario), so every registered scenario is runnable by name:
//
//	sphexa -scenario evrard -n 10000 -steps 20
//	sphexa -scenario square -kernel wendland-c2 -gradients kd -steps 10
//	sphexa -scenario sod -n 8000 -steps 20 -verify
//	sphexa -scenario noh -checkpoint-dir /tmp/ck -restart
//
// With -server, the job is not run locally at all: it is submitted to a
// running sphexa-serve instance through the reusable /v1 client
// (pkg/client) as a typed JobSpec — -backend/-machine/-cost select the
// execution section, -cores the modeled core count — and the CLI polls
// progress, prints the verification rollup, and (with -verify) fetches and
// prints the full persisted report:
//
//	sphexa -server http://localhost:8080 -scenario sod -n 8000 -steps 20 -verify
//	sphexa -server http://localhost:8080 -scenario sod -backend serial -verify
//	sphexa -server http://localhost:8080 -scenario evrard -machine marenostrum -cost sphynx
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/gravity"
	"repro/internal/kernel"
	"repro/internal/part"
	"repro/internal/runloop"
	"repro/internal/scenario"
	"repro/internal/sph"
	"repro/internal/trace"
	"repro/internal/ts"
	"repro/internal/verify"
	"repro/pkg/client"
)

func main() {
	var (
		test = flag.String("scenario", "evrard",
			"workload from the scenario registry: "+strings.Join(scenario.Names(), ", "))
		n         = flag.Int("n", 10000, "approximate particle count")
		steps     = flag.Int("steps", 20, "total time steps (a restored run continues to this total)")
		kern      = flag.String("kernel", "sinc-5", "SPH kernel (m4, wendland-c2/c4/c6, sinc-<n>)")
		gradients = flag.String("gradients", "iad", "gradient mode: iad or kd (kernel derivatives)")
		volumes   = flag.String("volumes", "generalized", "volume elements: generalized or standard")
		stepping  = flag.String("stepping", "global", "time stepping: global, individual, adaptive")
		neighbors = flag.Int("neighbors", 100, "target neighbor count")
		gravOrder = flag.String("multipoles", "quadrupole", "gravity expansion: monopole, quadrupole, hexadecapole")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
		ckptDir   = flag.String("checkpoint-dir", "", "enable checkpointing into this directory")
		ckptEvery = flag.Int("checkpoint-every", 5, "steps between checkpoints")
		restart   = flag.Bool("restart", false, "restore from the newest checkpoint before running")
		sdc       = flag.Bool("sdc", true, "run silent-data-corruption detectors every step")
		doVerify  = flag.Bool("verify", false,
			"score the final snapshot against the scenario's analytic reference and print the verification report; exit non-zero if the registered acceptance thresholds fail")
		serverURL = flag.String("server", "",
			"submit the job to a running sphexa-serve instance (base URL) through pkg/client instead of executing locally; engine flags (-kernel, -gradients, ...) are ignored remotely")
		backend = flag.String("backend", "",
			"execution backend of a -server job: parallel (default) or serial")
		machine = flag.String("machine", "",
			"modeled machine of a -server job (daint, marenostrum; empty = server default)")
		costModel = flag.String("cost", "",
			"parent-code cost calibration of a -server job (sphynx, changa, sphflow; empty = server default)")
		cores     = flag.Int("cores", 0, "modeled core count of a -server job")
		telemetry = flag.Bool("telemetry", false,
			"tail the live step-telemetry stream of a -server job (drift, dt, watchdogs)")
		traceOut = flag.String("trace-out", "",
			"write the local run's measured phase timeline as Chrome trace-event "+
				"JSON to this file (load in Perfetto or chrome://tracing)")
	)
	flag.Parse()
	var err error
	if *serverURL != "" {
		err = runRemote(*serverURL, *test, *n, *steps, *neighbors, *cores,
			*backend, *machine, *costModel, *doVerify, *telemetry)
	} else {
		err = run(*test, *n, *steps, *kern, *gradients, *volumes, *stepping,
			*neighbors, *gravOrder, *workers, *ckptDir, *ckptEvery, *restart, *sdc, *doVerify, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa:", err)
		os.Exit(1)
	}
}

// runRemote submits the job to a sphexa-serve instance as a typed /v1
// JobSpec and follows it to completion through the shared client — either
// by polling progress or, with -telemetry, by tailing the live SSE
// flight-recorder stream (per-step conservation drift, dt, and the physics
// watchdog rollup).
func runRemote(base, test string, n, steps, neighbors, cores int,
	backend, machine, costModel string, doVerify, telemetry bool) error {

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	c := client.New(base)

	spec := scenario.JobSpec{
		Spec: scenario.Spec{
			Scenario: test,
			Params:   scenario.Params{N: n, NNeighbors: neighbors},
			Steps:    steps,
			Cores:    cores,
		},
		Exec: scenario.Exec{Backend: backend, Machine: machine, Cost: costModel},
	}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("sphexa: submitted %s to %s (job %s, hash %.12s, cacheHit=%v)\n",
		test, base, job.ID, job.Hash, job.CacheHit)

	if telemetry && !job.Terminal() {
		// Tail the flight recorder: one line per new sample, watchdog
		// rollup changes flagged as they happen. The stream survives
		// kill-requeues and ends on the terminal frame.
		lastStep, lastStatus := -1, ""
		err := c.StreamTelemetry(ctx, job.ID, func(ev client.TelemetryEvent) bool {
			if ev.Telemetry != "" && ev.Telemetry != lastStatus {
				lastStatus = ev.Telemetry
				fmt.Printf("  watchdogs: %s\n", ev.Telemetry)
			}
			if s := ev.Sample; s != nil && s.Step != lastStep {
				lastStep = s.Step
				fmt.Printf("  step %d t=%.6f dt=%.3e |dE|=%.3e |dp|=%.3e h=[%.4f,%.4f]\n",
					s.Step, s.Time, s.DT, s.EnergyDrift, s.MomentumDrift, s.HMin, s.HMax)
			}
			return true
		})
		if err != nil {
			return err
		}
		if job, err = c.Job(ctx, job.ID); err != nil {
			return err
		}
	}
	lastStep := -1
	for !job.Terminal() {
		if job.Progress.Step != lastStep {
			lastStep = job.Progress.Step
			fmt.Printf("  step %d/%d t=%.6f\n", job.Progress.Step, job.Progress.Total, job.Progress.SimTime)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
		if job, err = c.Job(ctx, job.ID); err != nil {
			return err
		}
	}
	switch job.State {
	case client.StateCompleted:
		fmt.Printf("completed: %d steps, t=%.6f\n", job.Progress.Step, job.Progress.SimTime)
	default:
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if v := job.Verify; v != nil {
		fmt.Printf("verify rollup: reference=%s pass=%v l1Density=%.4g\n", v.Reference, v.Pass, v.L1Density)
	}
	if doVerify {
		rep, err := c.Metrics(ctx, job.ID)
		if err != nil {
			return err
		}
		printReport(rep)
		if !rep.Pass {
			return fmt.Errorf("verification failed: %s", failedChecks(rep))
		}
	}
	return nil
}

func run(test string, n, steps int, kern, gradients, volumes, stepping string,
	neighbors int, gravOrder string, workers int, ckptDir string, ckptEvery int,
	restart, sdc, doVerify bool, traceOut string) error {

	k, err := kernel.New(kern)
	if err != nil {
		return err
	}
	params := sph.Params{
		Kernel:     k,
		NNeighbors: neighbors,
		Workers:    workers,
	}
	switch gradients {
	case "iad":
		params.Gradients = sph.IAD
	case "kd", "kernel-derivatives":
		params.Gradients = sph.KernelDerivatives
	default:
		return fmt.Errorf("unknown -gradients %q", gradients)
	}
	switch volumes {
	case "generalized":
		params.Volumes = sph.GeneralizedVolume
	case "standard":
		params.Volumes = sph.StandardVolume
	default:
		return fmt.Errorf("unknown -volumes %q", volumes)
	}

	cfg := core.Config{SPH: params}
	switch stepping {
	case "global":
		cfg.Stepping = ts.Global
	case "individual":
		cfg.Stepping = ts.Individual
	case "adaptive":
		cfg.Stepping = ts.Adaptive
	default:
		return fmt.Errorf("unknown -stepping %q", stepping)
	}
	switch gravOrder {
	case "monopole":
		cfg.GravOrder = gravity.Monopole
	case "quadrupole":
		cfg.GravOrder = gravity.Quadrupole
	case "hexadecapole":
		cfg.GravOrder = gravity.Hexadecapole
	default:
		return fmt.Errorf("unknown -multipoles %q", gravOrder)
	}

	// Registry dispatch: the scenario supplies the particle set and its
	// required physics (EOS, gravity, boundaries); the engine flags above
	// override the numerics.
	sc, err := scenario.Get(test)
	if err != nil {
		return err
	}
	rp, err := sc.Resolve(scenario.Params{N: n, NNeighbors: neighbors})
	if err != nil {
		return err
	}
	set, scCfg, err := sc.Build(rp)
	if err != nil {
		return err
	}
	cfg.SPH.PBC, cfg.SPH.Box = scCfg.SPH.PBC, scCfg.SPH.Box
	cfg.SPH.EOS = scCfg.SPH.EOS
	cfg.Gravity = scCfg.Gravity
	if cfg.Gravity {
		cfg.Theta, cfg.Eps, cfg.G = scCfg.Theta, scCfg.Eps, scCfg.G
	}
	// Conservation reference for -verify: the freshly generated t=0 state
	// (before any checkpoint restore replaces it).
	initialState := conserve.Measure(set, nil)

	var ck *ft.Checkpointer
	if ckptDir != "" {
		ck = ft.NewTwoLevel(ckptDir)
	}

	// SIGINT/SIGTERM cancel the run cooperatively at the next step
	// boundary; per-step work (printing, SDC detection) rides the OnStep
	// hook and aborts through the same cancellation path.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	runCtx, abort := context.WithCancelCause(sigCtx)
	defer abort(nil)

	var sim *core.Sim
	var ref conserve.State
	var suite *ft.Suite
	var traceSteps []trace.SerialStep
	armed := false

	fmt.Printf("sphexa: %s, %d particles, kernel=%s gradients=%s volumes=%s stepping=%s\n",
		test, set.NLocal, kern, gradients, volumes, stepping)
	fmt.Printf("%6s %14s %14s %14s %14s %14s\n", "step", "dt", "t", "E_total", "E_kin", "mean nbrs")

	// One chunk = one shared-memory engine run of up to checkpoint-every
	// steps; the shared loop (internal/runloop) handles restore and
	// interim checkpoints — the same path the job server recovers through.
	chunk := func(ctx context.Context, ps *part.Set, base runloop.Base, steps int) (runloop.ChunkResult, error) {
		if sim == nil {
			var err error
			sim, err = core.New(cfg, ps)
			if err != nil {
				return runloop.ChunkResult{}, err
			}
			sim.StepN, sim.T = base.Step, base.Time
			sim.Ctx = ctx
			sim.OnStep = func(info core.StepInfo) {
				st := sim.Conservation()
				fmt.Printf("%6d %14.6e %14.6e %14.6e %14.6e %14.1f\n",
					info.Step, info.DT, info.Time, st.Total(), st.Kinetic, info.MeanNeighbors)
				if traceOut != "" {
					traceSteps = append(traceSteps, serialTraceStep(info))
				}
				if !armed {
					// Arm detectors after the first step: the gravitational
					// potential diagnostic only exists once forces have been
					// evaluated, so earlier totals are not comparable.
					armed = true
					ref = st
					if sdc {
						suite = &ft.Suite{Detectors: []ft.Detector{
							ft.StructuralDetector{},
							&ft.ConservationDetector{Ref: ref, Tolerance: 0.2},
						}}
					}
				}
				if suite != nil {
					if v := suite.Check(sim.PS, st); v.Corrupted {
						abort(fmt.Errorf("SDC detector %q tripped at step %d: %s", v.Detector, info.Step, v.Detail))
					}
				}
			}
		}
		startT := sim.T
		_, runErr := sim.Run(steps, 0)
		cancelled := runErr != nil && ctx.Err() != nil
		if runErr != nil && !cancelled {
			return runloop.ChunkResult{}, runErr
		}
		if ck != nil || cancelled {
			// The loop checkpoints chunk-boundary states, and an
			// interrupted state is checkpointed below; either way the KDK
			// half-kick must be completed first.
			sim.Synchronize()
		}
		return runloop.ChunkResult{
			PS:        sim.PS,
			Steps:     sim.StepN - base.Step,
			SimTime:   sim.T - startT,
			Cancelled: cancelled,
		}, nil
	}

	chunkSteps := 0
	if ck != nil && ckptEvery > 0 {
		chunkSteps = ckptEvery
	}
	res, err := runloop.Run(runloop.Options{
		Ctx:          runCtx,
		Checkpointer: ck,
		Resume:       restart,
		MustResume:   restart,
		TotalSteps:   steps,
		ChunkSteps:   chunkSteps,
		OnRestore: func(step int, simTime float64) {
			fmt.Printf("restored checkpoint: step %d, t=%.6f\n", step, simTime)
		},
	}, set, chunk)
	if err != nil {
		return err
	}

	switch {
	case res.Cancelled && sigCtx.Err() != nil:
		// Signal interruption: the chunk synchronized the boundary state;
		// checkpoint it and exit cleanly. A step-0 state is not worth a
		// checkpoint (and -restart rejects one): rerunning from scratch
		// loses nothing.
		if ck != nil && res.Steps > 0 {
			if err := ck.Write(0, res.Steps, res.SimTime, res.PS); err != nil {
				return fmt.Errorf("checkpoint on interrupt: %w", err)
			}
			fmt.Printf("interrupted at step %d (t=%.6f); checkpoint written, resume with -restart\n",
				res.Steps, res.SimTime)
		} else {
			fmt.Printf("interrupted at step %d (t=%.6f)\n", res.Steps, res.SimTime)
		}
	case res.Cancelled:
		// SDC trip or another programmatic abort.
		if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
			return cause
		}
		return fmt.Errorf("run cancelled at step %d", res.Steps)
	default:
		// An abort raised by OnStep on the final step has no next step
		// boundary for Run to observe; surface its cause here so a
		// last-step SDC trip cannot exit 0.
		if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
			return cause
		}
	}
	if armed {
		drift := conserve.Compare(ref, sim.Conservation())
		fmt.Printf("conservation drift over run: %s\n", drift)
	}

	if traceOut != "" && !res.Cancelled {
		if err := writeLocalTrace(traceOut, test, steps, res, traceSteps); err != nil {
			return fmt.Errorf("writing -trace-out: %w", err)
		}
		fmt.Printf("measured trace written: %s (open in Perfetto or chrome://tracing)\n", traceOut)
	}

	if doVerify && !res.Cancelled {
		sol, err := sc.BuildReference(rp)
		if err != nil {
			return fmt.Errorf("building analytic reference: %w", err)
		}
		rep := verify.Evaluate(verify.Input{
			Scenario:    test,
			PS:          res.PS,
			SimTime:     res.SimTime,
			Solution:    sol,
			EOS:         cfg.SPH.EOS,
			Thresholds:  sc.Accept,
			Initial:     initialState,
			HaveInitial: true,
		})
		printReport(rep)
		if !rep.Pass {
			return fmt.Errorf("verification failed: %s", failedChecks(rep))
		}
	}
	return nil
}

// serialTraceStep records one engine step's wall-clock phase breakdown for
// -trace-out. Phase IDs are the paper's single letters A..J, which sort to
// execution order.
func serialTraceStep(info core.StepInfo) trace.SerialStep {
	ids := make([]string, 0, len(info.PhaseSeconds))
	for ph := range info.PhaseSeconds {
		ids = append(ids, string(ph))
	}
	sort.Strings(ids)
	st := trace.SerialStep{Step: info.Step}
	for _, ph := range ids {
		st.Phases = append(st.Phases, trace.PhaseSpan{
			Phase: ph, Seconds: info.PhaseSeconds[core.PhaseID(ph)],
		})
	}
	return st
}

// writeLocalTrace assembles the measured per-step phase record and the run
// loop's wall-clock lifecycle (restore, run, checkpoint) into a
// Perfetto-loadable Chrome trace-event document — the same reassembly a
// completed server job exports at GET /v1/jobs/{id}/trace.
func writeLocalTrace(path, test string, totalSteps int, res runloop.Result, steps []trace.SerialStep) error {
	var lc []trace.LifecycleSpan
	offset := 0.0
	if res.Phases.Restore > 0 {
		lc = append(lc, trace.LifecycleSpan{Name: "restore", Seconds: res.Phases.Restore})
		offset += res.Phases.Restore
	}
	lc = append(lc, trace.LifecycleSpan{Name: "run", Seconds: res.Phases.Run})
	if res.Phases.Checkpoint > 0 {
		lc = append(lc, trace.LifecycleSpan{Name: "checkpoint", Seconds: res.Phases.Checkpoint})
	}
	m := trace.BuildMeasured(trace.MeasuredInput{Serial: steps, Lifecycle: lc, Offset: offset})
	doc := m.Document(map[string]string{
		"scenario": test,
		"steps":    strconv.Itoa(totalSteps),
		"backend":  "serial",
		"source":   "local",
	}, &trace.POPComparison{Measured: m.Metrics.Report()})
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printReport renders the verification report for terminal consumption.
func printReport(rep *verify.Report) {
	refName := rep.Reference
	if refName == "" {
		refName = "(none: conservation only)"
	}
	fmt.Printf("\nverification report: scenario=%s reference=%s t=%.6f particles=%d compared=%d\n",
		rep.Scenario, refName, rep.SimTime, rep.Particles, rep.Compared)
	if len(rep.Fields) > 0 {
		fmt.Printf("  %-9s %10s %10s %10s | %10s %10s %10s\n",
			"field", "L1", "L2", "Linf", "trim-L1", "trim-L2", "trim-Linf")
		for _, f := range rep.Fields {
			fmt.Printf("  %-9s %10.4f %10.4f %10.4f | %10.4f %10.4f %10.4f\n",
				f.Field, f.L1, f.L2, f.LInf, f.TrimmedL1, f.TrimmedL2, f.TrimmedLInf)
		}
	}
	if rep.Plateau != nil {
		fmt.Printf("  plateau: analytic=%.5f measured=%.5f relerr=%.2f%% (%d particles)\n",
			rep.Plateau.Analytic, rep.Plateau.Measured, 100*rep.Plateau.RelError, rep.Plateau.Particles)
	}
	fmt.Printf("  conservation drift: %s\n", rep.Conservation)
	for _, c := range rep.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Printf("  check %-22s %.4g <= %.4g  %s\n", c.Name, c.Value, c.Limit, status)
	}
	overall := "PASS"
	if !rep.Pass {
		overall = "FAIL"
	}
	fmt.Printf("  overall: %s\n", overall)
}

// failedChecks summarizes the failing checks for the error message.
func failedChecks(rep *verify.Report) string {
	var parts []string
	for _, c := range rep.Checks {
		if !c.Pass {
			parts = append(parts, fmt.Sprintf("%s %.4g > %.4g", c.Name, c.Value, c.Limit))
		}
	}
	return strings.Join(parts, "; ")
}

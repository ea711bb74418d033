package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/ft"
	"repro/internal/gravity"
	"repro/internal/kernel"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/sph"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/verify"
)

// probeSteps returns how many serial steps the engine probe replays and
// how many steps the parallel engine runs; both are fixed so the work
// counts repeat exactly for a seed.
func probeSteps(w workload) (serial, parallel int) {
	if w.N >= 4000 {
		return 3, 2
	}
	return w.Steps - 1, w.Steps
}

// serviceCost is the neutral phase-rate calibration sphexa-serve applies to
// jobs that name none; it shapes only the modeled clocks.
var serviceCost = core.CodeCost{
	TreeRate: 1e6, SearchRate: 5e6, PairRate: 2e6, EOSRate: 1e8,
	GravNodeRate: 3e6, GravPairRate: 3e6, UpdateRate: 1e8,
	HSweeps: 3,
}

// probeCores is the rank layout of the square-ranks workload (48 cores on
// the default machine model), used by the domain and simmpi probes on
// every workload.
const probeCores = 48

// Outside-timed engine phases, with the StepInfo phase each mirrors.
var enginePhases = []struct {
	span  string
	phase core.PhaseID
}{
	{"tree.build", core.PhaseTree},
	{"sph.neighbors", core.PhaseNeighbors},
	{"sph.density", core.PhaseDensity},
	{"sph.eos", core.PhaseEOS},
	{"sph.iad", core.PhaseIAD},
	{"sph.forces", core.PhaseForces},
	{"gravity.accel", core.PhaseGravity},
}

// probeLayers times calls into each layer's public functions on the
// workload's first job and adds the per-layer metrics to out.
func probeLayers(ctx context.Context, w workload, seed int64, tr *tracer, dir string, out *outcome) error {
	spec, hash, err := newSpecGen(w, seed, streamMisses, map[string]bool{}).next()
	if err != nil {
		return err
	}
	job := "probe-" + hash[:12]
	root := tr.begin("probe", job, -1)
	defer tr.end(root)
	sc, err := scenario.Get(spec.Scenario)
	if err != nil {
		return err
	}

	// scenario: initial conditions and the content hash.
	var ps *part.Set
	var cfg core.Config
	var gens []float64
	for i := 0; i < 3; i++ {
		gens = append(gens, tr.timed("scenario.generate", job, root, func() {
			ps, cfg, err = sc.Generate(spec.Params)
		}))
		if err != nil {
			return err
		}
	}
	out.add("scenario.generate_s", "s", median(gens), len(gens))
	const hashes = 2000
	hashS := tr.timed("scenario.hash", job, root, func() {
		for i := 0; i < hashes && err == nil; i++ {
			_, err = spec.Hash()
		}
	})
	if err != nil {
		return err
	}
	out.add("scenario.hash_us", "us", hashS/hashes*1e6, hashes)

	// kernel: one W plus one dW/dq of the default sinc-5 kernel over a
	// fixed q grid on [0, 2].
	k := kernel.NewSinc(5)
	const grid, sweeps = 1024, 200
	var sink float64
	kS := tr.timed("kernel.eval", job, root, func() {
		for s := 0; s < sweeps; s++ {
			for i := 0; i < grid; i++ {
				q := 2 * float64(i) / float64(grid-1)
				sink += k.W(q, 1) + k.GradW(q, 1)
			}
		}
	})
	if math.IsNaN(sink) {
		return fmt.Errorf("kernel probe produced NaN")
	}
	out.add("kernel.eval_ns", "ns", kS/(grid*sweeps)*1e9, grid*sweeps)

	initial := conserve.Measure(ps, nil)

	// core/tree/sph/gravity/domain: serial steps, each followed by an
	// outside-timed replay of its phases on a copy of the state it produced.
	nSerial, nParallel := probeSteps(w)
	sim, err := core.New(cfg, ps.Clone())
	if err != nil {
		return err
	}
	p := sim.Cfg.SPH
	// Per step: the phases' seconds inside Sim.Step and outside it.
	inside := map[core.PhaseID][]float64{}
	outside := map[core.PhaseID][]float64{}
	var stepS, coverage []float64
	var interactions, meanNbrs, fallbacks, nodeInt, pairInt, ghosts float64
	var haloFrac, workImb []float64
	gravOn := sim.Cfg.Gravity
	theta, eps, g := sim.Cfg.Theta, sim.Cfg.Eps, sim.Cfg.G
	if !gravOn {
		// The probe still times the solver on this workload's particles,
		// with the evrard scenario's settings.
		theta, eps, g = 0.6, 0.02, 1
	}
	// The first step converges the initial smoothing lengths and costs more
	// than the steps after it, whose replays it could not be compared with.
	if _, err := sim.Step(); err != nil {
		return err
	}
	for s := 0; s < nSerial; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var info core.StepInfo
		var serr error
		stepS = append(stepS, tr.timed("core.step", job, root, func() { info, serr = sim.Step() }))
		if serr != nil {
			return serr
		}
		for _, ph := range enginePhases {
			inside[ph.phase] = append(inside[ph.phase], info.PhaseSeconds[ph.phase])
		}
		meanNbrs += info.MeanNeighbors

		cp := sim.PS.Clone()
		rep := tr.begin("core.replay", job, root)
		var cov float64
		timedPhase := func(i int, fn func()) {
			d := tr.timed(enginePhases[i].span, job, rep, fn)
			outside[enginePhases[i].phase] = append(outside[enginePhases[i].phase], d)
			if enginePhases[i].phase != core.PhaseGravity || gravOn {
				cov += d
			}
		}
		var tree2 *tree.Tree
		timedPhase(0, func() { tree2 = sph.BuildTree(cp, &p) })
		var nl *sph.NeighborList
		timedPhase(1, func() { nl = sph.UpdateSmoothingLengths(cp, tree2, &p) })
		timedPhase(2, func() { sph.Density(cp, nl, &p) })
		timedPhase(3, func() { sph.EquationOfState(cp, &p) })
		if p.Gradients == sph.IAD {
			timedPhase(4, func() { fallbacks += float64(sph.ComputeIAD(cp, nl, &p)) })
		}
		timedPhase(5, func() { interactions += float64(sph.MomentumEnergy(cp, nl, &p).Interactions) })
		timedPhase(6, func() {
			solver := gravity.NewSolver(tree2, cp.Pos, cp.Mass)
			solver.Order, solver.Theta, solver.Eps, solver.G = sim.Cfg.GravOrder, theta, eps, g
			targets := make([]int32, cp.NLocal)
			for i := range targets {
				targets[i] = int32(i)
			}
			res := solver.Accelerations(targets, p.Workers)
			nodeInt += float64(res.NodeInteractions)
			pairInt += float64(res.ParticleInteractions)
		})
		coverage = append(coverage, cov/stepS[len(stepS)-1])

		gh, hf, wi := probeDomain(tr, job, rep, cp, cfg)
		ghosts += gh
		haloFrac = append(haloFrac, hf)
		workImb = append(workImb, wi)
		tr.end(rep)
	}
	ns := float64(nSerial)
	out.add("core.step_s", "s", median(stepS), len(stepS))
	for _, ph := range enginePhases {
		out.add(ph.span+"_s", "s", mean(outside[ph.phase]), len(outside[ph.phase]))
	}
	self, cnt := tr.selfTimes()
	out.add("domain.decompose_s", "s", self["domain.decompose"]/float64(cnt["domain.decompose"]), cnt["domain.decompose"])
	out.add("domain.halo_plan_s", "s", self["domain.halo_plan"]/float64(cnt["domain.halo_plan"]), cnt["domain.halo_plan"])
	out.add("sph.interactions", "count", interactions/ns, nSerial)
	out.add("sph.mean_neighbors", "count", meanNbrs/ns, nSerial)
	out.add("sph.iad_fallbacks", "count", fallbacks/ns, nSerial)
	out.add("gravity.node_interactions", "count", nodeInt/ns, nSerial)
	out.add("gravity.pair_interactions", "count", pairInt/ns, nSerial)
	out.add("domain.ghosts_per_step", "count", ghosts/ns, nSerial)
	out.add("domain.halo_fraction", "ratio", mean(haloFrac), nSerial)
	out.add("domain.work_imbalance", "ratio", mean(workImb), nSerial)

	// Cross-checks of the outside timings, as medians over the steps: the
	// share of the step they cover, and their largest disagreement with
	// StepInfo.PhaseSeconds over the phases that hold at least 5% of it.
	out.add("trace.phase_coverage", "ratio", median(coverage), nSerial)
	agree := 0.0
	for _, ph := range enginePhases {
		in, outs := inside[ph.phase], outside[ph.phase]
		if len(outs) == 0 || median(in) < 0.05*median(stepS) {
			continue
		}
		ratios := make([]float64, len(in))
		for k := range in {
			ratios[k] = outs[k] / in[k]
		}
		agree = math.Max(agree, math.Abs(median(ratios)-1))
	}
	out.add("trace.phase_agreement", "ratio", agree, nSerial)

	// part, ft, store, verify on the state the serial steps produced.
	sim.Synchronize()
	var snap bytes.Buffer
	var encs []float64
	for i := 0; i < 5; i++ {
		snap.Reset()
		encs = append(encs, tr.timed("part.encode", job, root, func() { _, err = sim.PS.WriteTo(&snap) }))
		if err != nil {
			return err
		}
	}
	out.add("part.encode_s", "s", median(encs), len(encs))
	out.add("part.snapshot_bytes", "bytes", float64(snap.Len()), 1)

	ckDir := filepath.Join(dir, "ckpt")
	ck := &ft.Checkpointer{Levels: []ft.Level{{Name: "local", Dir: ckDir, Keep: 1}}}
	var cks []float64
	for i := 0; i < 3; i++ {
		cks = append(cks, tr.timed("ft.checkpoint", job, root, func() { err = ck.Write(0, sim.StepN, sim.T, sim.PS) }))
		if err != nil {
			return err
		}
	}
	ckBytes, err := dirBytes(ckDir)
	if err != nil {
		return err
	}
	out.add("ft.checkpoint_s", "s", median(cks), len(cks))
	out.add("ft.checkpoint_bytes", "bytes", float64(ckBytes), 1)

	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	var puts, reads []float64
	for i := 0; i < 3; i++ {
		h := fmt.Sprintf("%s%02d", hash[:62], i)
		meta := store.Meta{Hash: h, Particles: sim.PS.NLocal, Steps: sim.StepN, SimTime: sim.T, Checksum: sim.PS.Checksum()}
		puts = append(puts, tr.timed("store.put", job, root, func() { err = st.Put(meta, snap.Bytes()) }))
		if err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		var got []byte
		reads = append(reads, tr.timed("store.read", job, root, func() { got, _, err = st.ReadObject(fmt.Sprintf("%s%02d", hash[:62], i%3)) }))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, snap.Bytes()) {
			out.failf("store probe: object read back differs from the bytes written")
		}
	}
	if q := st.Quarantined(); q != 0 {
		out.failf("store probe quarantined %d objects", q)
	}
	out.add("store.put_s", "s", median(puts), len(puts))
	out.add("store.read_ms", "ms", median(reads)*1e3, len(reads))

	sol, refErr := sc.BuildReference(spec.Params)
	var vrep *verify.Report
	verS := tr.timed("verify.evaluate", job, root, func() {
		vrep = verify.Evaluate(verify.Input{
			Scenario: spec.Scenario, PS: sim.PS, SimTime: sim.T, Solution: sol, ReferenceErr: refErr,
			EOS: cfg.SPH.EOS, Thresholds: sc.Accept, Initial: initial, HaveInitial: true,
		})
	})
	out.add("verify.evaluate_s", "s", verS, 1)
	if !vrep.Pass {
		out.failf("verify probe: the probe's own run does not pass its scenario's checks")
	}

	// core parallel engine and simmpi model on the workload's initial state.
	pcfg := core.ParallelConfig{
		Core: cfg, Machine: perfmodel.PizDaint(), Cores: probeCores,
		Decomp: domain.MortonSFC, Cost: serviceCost, Steps: nParallel, Ctx: ctx,
	}
	var pres *core.ParallelResult
	parS := tr.timed("core.parallel_run", job, root, func() { _, pres, err = core.RunParallelCapture(pcfg, ps.Clone()) })
	if err != nil {
		return err
	}
	steps := float64(pres.StepsCompleted)
	out.add("core.parallel_step_s", "s", parS/steps, pres.StepsCompleted)
	out.add("core.modeled_step_s", "s", pres.AvgStepSeconds, pres.StepsCompleted)
	var halo, coll float64
	for _, rt := range pres.Timing.PerRank {
		halo = math.Max(halo, rt.Halo)
		coll = math.Max(coll, rt.Collective)
	}
	out.add("simmpi.halo_model_s", "s", halo/steps, pres.Ranks)
	out.add("simmpi.collective_model_s", "s", coll/steps, pres.Ranks)
	return nil
}

// probeDomain decomposes the state over the probe's rank layout and plans
// every rank's halo as the parallel engine does. It returns the ghost
// count, the ghost fraction of the owned particles, and the work imbalance:
// max over mean of the neighbor pairs each rank owns. (The machine model
// charges every rank the same modeled compute time, so the imbalance of
// ParallelResult.Timing is 1 by construction.)
func probeDomain(tr *tracer, job string, parent int, ps *part.Set, cfg core.Config) (ghosts, frac, imbalance float64) {
	ranks := perfmodel.PizDaint().NodeCount(probeCores)
	var locals []*part.Set
	tr.timed("domain.decompose", job, parent, func() {
		asg := domain.Decompose(domain.MortonSFC, ps, cfg.SPH.Box, ranks, nil)
		locals = domain.Split(ps, asg, ranks)
	})
	tr.timed("domain.halo_plan", job, parent, func() {
		boxes := make([]domain.AABB, ranks)
		hmax := 0.0
		for r, l := range locals {
			boxes[r] = domain.BoundsOf(l)
			for _, h := range l.H[:l.NLocal] {
				hmax = math.Max(hmax, h)
			}
		}
		margin := 2 * hmax * 1.5
		for r, l := range locals {
			plan := domain.PlanHalo(l, boxes, r, margin, cfg.SPH.PBC)
			for _, to := range plan.ToPeer {
				ghosts += float64(len(to))
			}
		}
	})
	var maxWork, sumWork float64
	for _, l := range locals {
		var work float64
		for _, nn := range l.NN[:l.NLocal] {
			work += float64(nn)
		}
		maxWork = math.Max(maxWork, work)
		sumWork += work
	}
	return ghosts, ghosts / float64(ps.NLocal), maxWork / (sumWork / float64(len(locals)))
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

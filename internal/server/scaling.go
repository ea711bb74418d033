package server

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
)

// ScalingView is a snapshot of a scaling experiment (POST /v1/scaling): a
// core-count ladder of member jobs — optionally replicated across paired
// execution arms — run through the ordinary job pipeline, aggregated into
// speedup / POP efficiency curves and a trimmed Amdahl fit
// (experiments.ScalingResult) when the last member completes.
type ScalingView = SweepView[experiments.ScalingSweep]

// ScalingPage is the paginated scaling-experiment listing envelope.
type ScalingPage struct {
	Scaling    []ScalingView `json:"scaling"`
	NextCursor string        `json:"nextCursor,omitempty"`
}

// scalingKind is the scaling-experiment resource.
func (s *Server) scalingKind() resourceKind[experiments.ScalingSweep, ScalingView] {
	return resourceKind[experiments.ScalingSweep, ScalingView]{
		prefix: "scl", noun: "scaling experiment", specNoun: "scaling sweep",
		prepare: func(sw experiments.ScalingSweep) (submission[experiments.ScalingSweep], error) {
			csw, err := sw.Canonical()
			if err != nil {
				return submission[experiments.ScalingSweep]{}, err
			}
			hash, err := csw.Hash()
			return submission[experiments.ScalingSweep]{spec: csw, hash: hash}, err
		},
		members:   s.scalingMembers,
		aggregate: s.aggregateScaling,
		view:      sweepView[experiments.ScalingSweep],
		page: func(views []ScalingView, next string) any {
			return ScalingPage{Scaling: views, NextCursor: next}
		},
		submitError: submitError,
		started:     s.met.sweeps, hits: s.met.sweepCacheHits, terminal: s.met.sweepsDone,
		labels: []string{"scaling"},
	}
}

// scalingMembers submits the members one arm at a time over the shared
// ladder — the pairing discipline: every arm runs exactly the same core
// counts. Members identical to stored or in-flight jobs (including the
// members of a convergence experiment) never recompute.
func (s *Server) scalingMembers(sw experiments.ScalingSweep) ([]member, error) {
	var members []member
	for arm := 0; arm < sw.NArms(); arm++ {
		for _, cores := range sw.Cores {
			m, err := s.sweepMember("scaling", sw.Member(arm, cores))
			if err != nil {
				return nil, fmt.Errorf("server: submitting scaling member %s@%d cores: %w",
					sw.ArmLabel(arm), cores, err)
			}
			m.Arm = sw.ArmLabel(arm)
			m.Cores = cores
			m.arm = arm
			m.label = fmt.Sprintf("%d cores", cores)
			members = append(members, m)
		}
	}
	return members, nil
}

// aggregateScaling builds the scaling result from the members' persisted
// timing breakdowns.
func (s *Server) aggregateScaling(r *resource[experiments.ScalingSweep], _ []cluster.JobData) (any, error) {
	// Members arrive arm-major over the shared ladder; rebuild the
	// [arm][point] grid the aggregator expects.
	timings := make([][]experiments.ScalingMemberTiming, r.Spec.NArms())
	for _, m := range r.Members {
		var parsed struct {
			Timing *core.RunTiming `json:"timing"`
		}
		if err := s.memberReport(m, &parsed); err != nil {
			return nil, err
		}
		if parsed.Timing == nil {
			// A coalesced hit on a result persisted before timing capture
			// existed; it cannot contribute a curve point.
			return nil, fmt.Errorf("member job %s (%s) recorded no phase timings (pre-timing stored result?)", m.JobID, m.label)
		}
		timings[m.arm] = append(timings[m.arm], experiments.ScalingMemberTiming{
			Cores: m.Cores, N: m.N, Hash: m.Hash, Timing: *parsed.Timing,
		})
	}
	return experiments.BuildScalingResult(r.Spec, timings)
}

package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// ExperimentView is a snapshot of a convergence experiment (POST
// /v1/experiments): an N-ladder of member jobs run through the ordinary job
// pipeline, aggregated into a norm-vs-N regression (experiments.Result)
// when the last member completes.
type ExperimentView = SweepView[experiments.Sweep]

// ExperimentPage is the paginated experiment listing envelope.
type ExperimentPage struct {
	Experiments []ExperimentView `json:"experiments"`
	NextCursor  string           `json:"nextCursor,omitempty"`
}

// experimentKind is the convergence-experiment resource.
func (s *Server) experimentKind() resourceKind[experiments.Sweep, ExperimentView] {
	return resourceKind[experiments.Sweep, ExperimentView]{
		prefix: "exp", noun: "experiment", specNoun: "sweep",
		prepare:   prepareExperiment,
		members:   s.experimentMembers,
		aggregate: s.aggregateExperiment,
		view:      sweepView[experiments.Sweep],
		page: func(views []ExperimentView, next string) any {
			return ExperimentPage{Experiments: views, NextCursor: next}
		},
		submitError: submitError,
		started:     s.met.sweeps, hits: s.met.sweepCacheHits, terminal: s.met.sweepsDone,
		labels: []string{"convergence"},
	}
}

// prepareExperiment canonicalizes a sweep; its scenario must register an
// analytic reference to score the members against.
func prepareExperiment(sw experiments.Sweep) (submission[experiments.Sweep], error) {
	csw, err := sw.Canonical()
	if err != nil {
		return submission[experiments.Sweep]{}, err
	}
	sc, err := scenario.Get(csw.Base.Scenario)
	if err != nil {
		return submission[experiments.Sweep]{}, err
	}
	if sc.Reference == nil {
		return submission[experiments.Sweep]{}, fmt.Errorf("server: scenario %q registers no analytic reference; a convergence experiment needs one to score its members", sc.Name)
	}
	hash, err := csw.Hash()
	return submission[experiments.Sweep]{spec: csw, hash: hash}, err
}

// experimentMembers submits one member job per ladder point.
func (s *Server) experimentMembers(sw experiments.Sweep) ([]member, error) {
	members := make([]member, 0, len(sw.Ns))
	for _, n := range sw.Ns {
		m, err := s.sweepMember("convergence", sw.Member(n))
		if err != nil {
			return nil, fmt.Errorf("server: submitting sweep member N=%d: %w", n, err)
		}
		m.N = n
		m.label = fmt.Sprintf("N=%d", n)
		members = append(members, m)
	}
	return members, nil
}

// aggregateExperiment fits the convergence regression over the members'
// verification reports.
func (s *Server) aggregateExperiment(r *resource[experiments.Sweep], _ []cluster.JobData) (any, error) {
	points := make([]experiments.Point, 0, len(r.Members))
	for _, m := range r.Members {
		var parsed struct {
			Particles int     `json:"particles"`
			L1Density float64 `json:"l1Density"`
			Pass      bool    `json:"pass"`
		}
		if err := s.memberReport(m, &parsed); err != nil {
			return nil, err
		}
		points = append(points, experiments.Point{
			N: m.N, Particles: parsed.Particles,
			L1Density: parsed.L1Density, Pass: parsed.Pass, Hash: m.Hash,
		})
	}
	fit, err := experiments.FitOrder(points)
	if err != nil {
		return nil, err
	}
	return experiments.Result{
		Scenario: r.Spec.Base.Scenario,
		Field:    "density-l1-trimmed",
		Points:   points,
		Fit:      fit,
	}, nil
}

// sweepMember submits one sweep member through the coalescing job path,
// attributing the fan-out to the sweep kind (these job submissions belong
// to a sweep, not to ad-hoc clients).
func (s *Server) sweepMember(kind string, spec scenario.JobSpec) (member, error) {
	view, err := s.Submit(spec)
	if err != nil {
		return member{}, err
	}
	s.met.sweepMembers.With(kind).Inc()
	if view.CacheHit {
		s.met.sweepMemberHits.With(kind).Inc()
	}
	return member{
		MemberView: MemberView{N: view.Spec.Params.N, JobID: view.ID, Hash: view.Hash},
		done:       s.memberDone(view.ID),
	}, nil
}

// memberReport decodes a finished member's verification report into out,
// or says why the member has none.
func (s *Server) memberReport(m member, out any) error {
	rep := s.reportByHash(m.Hash)
	if rep == nil {
		reason := "no verification report recorded"
		if view, ok := s.Get(m.JobID); ok && view.State != StateCompleted {
			reason = fmt.Sprintf("ended %s", view.State)
			if view.Error != "" {
				reason += ": " + view.Error
			}
		}
		return fmt.Errorf("member job %s (%s) %s", m.JobID, m.label, reason)
	}
	if err := json.Unmarshal(rep, out); err != nil {
		return fmt.Errorf("member job %s (%s): undecodable report: %v", m.JobID, m.label, err)
	}
	return nil
}

// reportByHash returns the verification report of a completed result by
// spec hash: the memory layer first, then the persistent store. Unlike
// Metrics it does not need a live job record, so sweeps survive job table
// pruning.
func (s *Server) reportByHash(hash string) []byte {
	s.mu.Lock()
	var b []byte
	if res, ok := s.cache[hash]; ok {
		b = res.report
	}
	s.mu.Unlock()
	if b != nil {
		return b
	}
	if st := s.opts.Store; st != nil {
		if rb, ok := st.ReadReport(hash); ok {
			return rb
		}
	}
	return nil
}

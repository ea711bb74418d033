package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
)

// ErrNoStore rejects analytics submissions on a server without a persistent
// result store: the analysis clusters the *persisted* verification corpus,
// so there is nothing to cluster without one.
var ErrNoStore = errors.New("server: no result store attached; analytics requires persisted verification reports")

// AnalysisView is an immutable snapshot of a fleet-clustering analysis
// (POST /v1/analytics/cluster): the persisted verification corpus —
// optionally narrowed to one scenario — extracted into robust feature
// vectors and fit with the RIMLE mixture (internal/cluster), whose improper
// noise component flags anomalous runs. Its hash covers the spec AND the
// sorted member report hashes, so resubmitting after more jobs complete
// recomputes while an unchanged corpus (including across a restart) is a
// byte-identical cache hit.
type AnalysisView struct {
	ID       string          `json:"id"`
	Spec     cluster.Spec    `json:"spec"`
	Hash     string          `json:"hash"`
	State    JobState        `json:"state"`
	CacheHit bool            `json:"cacheHit"`
	Jobs     int             `json:"jobs"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func (v AnalysisView) status() (string, JobState) { return v.Hash, v.State }

// AnalyticsPage is the paginated cluster-analysis listing envelope.
type AnalyticsPage struct {
	Analyses   []AnalysisView `json:"analyses"`
	NextCursor string         `json:"nextCursor,omitempty"`
}

// AnomalyMark is the rollup a flagged job carries on its views: which
// analysis assigned it to the improper noise component and with what
// posterior probability. The newest analysis covering the job wins; an
// analysis that re-clusters the job into a proper component clears the mark.
type AnomalyMark struct {
	Analysis  string  `json:"analysis"`
	Scenario  string  `json:"scenario,omitempty"`
	NoiseProb float64 `json:"noiseProb"`
}

// analysisKind is the cluster-analysis resource: no member jobs, the
// RIMLE fit over the enumerated corpus on the collector goroutine, and
// anomaly marks applied to the job table whenever a result lands.
func (s *Server) analysisKind() resourceKind[cluster.Spec, AnalysisView] {
	return resourceKind[cluster.Spec, AnalysisView]{
		prefix: "cls", noun: "cluster analysis", specNoun: "cluster spec",
		prepare: s.prepareAnalysis,
		aggregate: func(r *resource[cluster.Spec], corpus []cluster.JobData) (any, error) {
			return cluster.Analyze(r.Spec, corpus)
		},
		applyLocked: s.applyAnomaliesLocked,
		view: func(r *resource[cluster.Spec], _ []MemberView) AnalysisView {
			return AnalysisView{
				ID: r.ID, Spec: r.Spec, Hash: r.Hash, State: r.State,
				CacheHit: r.CacheHit, Jobs: r.Jobs, Result: r.Result, Error: r.Err,
			}
		},
		page: func(views []AnalysisView, next string) any {
			return AnalyticsPage{Analyses: views, NextCursor: next}
		},
		submitError: analysisSubmitError,
		started:     s.met.analytics, hits: s.met.analyticsHits, terminal: s.met.analyticsDone,
	}
}

// prepareAnalysis canonicalizes a cluster spec and enumerates the persisted
// verification corpus it covers; the analysis hash covers both.
func (s *Server) prepareAnalysis(sp cluster.Spec) (submission[cluster.Spec], error) {
	if s.opts.Store == nil {
		return submission[cluster.Spec]{}, ErrNoStore
	}
	csp, err := sp.Canonical()
	if err != nil {
		return submission[cluster.Spec]{}, err
	}
	// The scenario filter applies here, before hashing: the analysis
	// identity is the corpus it actually fits, so unrelated scenarios
	// completing cannot invalidate a filtered analysis.
	jobs := s.analysisDataset(csp)
	if len(jobs) < cluster.MinJobs {
		return submission[cluster.Spec]{}, fmt.Errorf("server: only %d persisted verification reports match the spec (need at least %d); seed more completed runs", len(jobs), cluster.MinJobs)
	}
	if len(jobs) > cluster.MaxJobs {
		return submission[cluster.Spec]{}, fmt.Errorf("server: %d persisted reports match the spec, over the %d-job cap; narrow the scenario filter", len(jobs), cluster.MaxJobs)
	}
	hashes := make([]string, len(jobs))
	for i, jd := range jobs {
		hashes[i] = jd.Hash
	}
	hash, err := cluster.AnalysisHash(csp, hashes)
	return submission[cluster.Spec]{spec: csp, hash: hash, corpus: jobs}, err
}

// analysisSubmitError writes a rejected analysis submission: 404 without a
// store to cluster, 400 for anything else.
func analysisSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNoStore) {
		writeError(w, http.StatusNotFound, CodeNoStore, err.Error(), nil)
		return
	}
	writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), nil)
}

// analysisDataset enumerates every store entry with a persisted verification
// report, reading the report (and telemetry track, when present) bytes. A
// scenario-filtered spec keeps only reports whose header names that
// scenario; reports that fail to decode are excluded from a filtered
// dataset (their scenario is unknowable) but included in an unfiltered one,
// where the fit records them as skipped.
func (s *Server) analysisDataset(csp cluster.Spec) []cluster.JobData {
	st := s.opts.Store
	var jobs []cluster.JobData
	for _, h := range st.ReportHashes() {
		rep, ok := st.ReadReport(h)
		if !ok {
			continue
		}
		if csp.Scenario != "" {
			var hdr struct {
				Scenario string `json:"scenario"`
			}
			if err := json.Unmarshal(rep, &hdr); err != nil || hdr.Scenario != csp.Scenario {
				continue
			}
		}
		jd := cluster.JobData{Hash: h, Report: rep}
		if tel, ok := st.ReadTelemetry(h); ok {
			jd.Telemetry = tel
		}
		jobs = append(jobs, jd)
	}
	return jobs
}

// applyAnomaliesLocked folds one analysis result (cluster.Result JSON) into
// the anomaly rollup table keyed by job spec hash: members the improper
// component claimed gain (or refresh) a mark, members it released lose
// theirs. The analytics_anomalies_total counter ticks only on newly flagged
// jobs, so re-running an identical analysis cannot inflate it. An
// undecodable result applies nothing.
func (s *Server) applyAnomaliesLocked(analysisID string, raw []byte) {
	var res cluster.Result
	if json.Unmarshal(raw, &res) != nil {
		return
	}
	for _, m := range res.Members {
		if !m.Anomaly {
			delete(s.anomalies, m.Hash)
			continue
		}
		if _, already := s.anomalies[m.Hash]; !already {
			scenario := m.Scenario
			if scenario == "" {
				scenario = "unknown"
			}
			s.met.anomaliesFlagged.With(scenario).Inc()
		}
		s.anomalies[m.Hash] = &AnomalyMark{
			Analysis:  analysisID,
			Scenario:  m.Scenario,
			NoiseProb: m.NoiseProb,
		}
	}
}

// jobViewLocked snapshots a job, decorating it with its anomaly mark when a
// cluster analysis has flagged its result.
func (s *Server) jobViewLocked(j *Job) JobView {
	v := j.view()
	if mark, ok := s.anomalies[j.Hash]; ok {
		v.Anomaly = mark
	}
	return v
}

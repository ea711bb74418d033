package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/scenario"
)

// Loop disciplines of the load generator.
const (
	closedLoop = "closed"
	openLoop   = "open"
)

// workload is one benchmark workload: the job shape the generator submits
// and the way it submits them.
type workload struct {
	Name string
	// Scenario, N, Neighbors, Steps, Backend and Cores shape every job. N
	// is a particle count the scenario's generator realizes exactly, so a
	// result's particle count can be checked against it.
	Scenario  string
	N         int
	Neighbors int
	Steps     int
	Backend   string
	Cores     int
	// JitterKey names the scenario parameter the seed perturbs (by up to
	// ±1% around JitterBase) so that no two jobs share a content hash while
	// every job does the same amount of work.
	JitterKey  string
	JitterBase float64

	Loop string
	// HitsPerMiss (closed loop) replays each completed job this many times
	// as cache hits before the next miss is submitted.
	HitsPerMiss int
	// Corpus (open loop) is the number of distinct results filled during
	// set-up for the cache-hit requests to draw on.
	Corpus int
	// MissRate and HitRate (open loop) are arrival rates per second.
	MissRate, HitRate float64
	// MinMisses is the least number of miss jobs a closed-loop run
	// completes, however short its time budget.
	MinMisses int
	// SetupReps is how many times a run sets the server up from scratch;
	// setup_s is the median.
	SetupReps int
}

// checkpointEvery is the server's -checkpoint-every for the workload: half
// a job, so every job writes exactly one interim checkpoint.
func (w workload) checkpointEvery() int { return w.Steps / 2 }

var workloads = []workload{
	{
		Name: "evrard-serial", Scenario: "evrard", N: 8024, Neighbors: 100, Steps: 10,
		Backend: scenario.BackendSerial, JitterKey: "u0", JitterBase: 0.05,
		Loop: closedLoop, HitsPerMiss: 40, MinMisses: 3, SetupReps: 7,
	},
	{
		Name: "square-ranks", Scenario: "square", N: 8000, Neighbors: 100, Steps: 20,
		Cores: 48, JitterKey: "omega", JitterBase: 5,
		// Twice evrard's hits per miss: a run fits only three square jobs.
		Loop: closedLoop, HitsPerMiss: 80, MinMisses: 3, SetupReps: 7,
	},
	{
		Name: "serve-mix", Scenario: "sod", N: 864, Neighbors: 30, Steps: 10,
		JitterKey: "pL", JitterBase: 1,
		Loop: openLoop, Corpus: 8, MissRate: 1, HitRate: 15, SetupReps: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// specGen draws the workload's job specs from one seeded stream. Every spec
// it returns has a content hash distinct from all earlier ones.
type specGen struct {
	w    workload
	rng  *rand.Rand
	seen map[string]bool
}

// Seeded streams: one per independent draw, so adding draws to one stream
// never shifts another.
const (
	streamMisses = iota + 1
	streamCorpus
	streamSchedule
)

func newSpecGen(w workload, seed int64, stream uint64, seen map[string]bool) *specGen {
	return &specGen{w: w, rng: rand.New(rand.NewPCG(uint64(seed), stream)), seen: seen}
}

func (g *specGen) next() (scenario.JobSpec, string, error) {
	for {
		v := g.w.JitterBase * (1 + 0.02*(g.rng.Float64()-0.5))
		js := scenario.JobSpec{
			Spec: scenario.Spec{
				Scenario: g.w.Scenario,
				Params: scenario.Params{
					N: g.w.N, NNeighbors: g.w.Neighbors,
					Extra: map[string]float64{g.w.JitterKey: v},
				},
				Steps: g.w.Steps,
				Cores: g.w.Cores,
			},
			Exec: scenario.Exec{Backend: g.w.Backend},
		}
		h, err := js.Hash()
		if err != nil {
			return js, "", err
		}
		if !g.seen[h] {
			g.seen[h] = true
			return js, h, nil
		}
	}
}

// event is one open-loop arrival: a fresh job (miss) or a replay of a
// corpus entry (hit), due at offset Due from the start of the measurement.
type event struct {
	Due    time.Duration
	Hit    bool
	Corpus int
}

// schedule draws the open-loop arrivals of a run of the given length: two
// evenly spaced streams at MissRate and HitRate, each arrival displaced by
// a seeded uniform jitter of up to a tenth of its spacing, merged in due
// order. Every seed thus issues the same number of requests at the same
// average load, and only their phases against each other vary.
func schedule(w workload, seed int64, length time.Duration) []event {
	rng := rand.New(rand.NewPCG(uint64(seed), streamSchedule))
	var evs []event
	arrivals := func(rate float64, hit bool) {
		n := int(rate * length.Seconds())
		for i := 0; i < n; i++ {
			t := (float64(i) + 0.5 + 0.2*(rng.Float64()-0.5)) / rate
			ev := event{Due: time.Duration(t * float64(time.Second)), Hit: hit}
			if hit {
				ev.Corpus = rng.IntN(w.Corpus)
			}
			evs = append(evs, ev)
		}
	}
	arrivals(w.MissRate, false)
	arrivals(w.HitRate, true)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Due < evs[j].Due })
	return evs
}

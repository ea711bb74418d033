package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/sph"
)

// pinnedChecksums are part.Set.Checksum() values after three steps of small
// runs on the registered scenarios' engine defaults (sinc-5 kernel, IAD
// gradients, generalized volume elements). They were recorded before the
// hot-path optimizations of the kernel, neighbor and force loops, which are
// required to change no output bit.
//
// A change to any of these values is a numerics change: it alters what a
// content address means, and must land together with the engine numerics
// fingerprint (ROADMAP item 3) rather than by re-pinning here.
var pinnedChecksums = map[string]uint64{
	"evrard-serial":      0xa3c9583b63dcc604,
	"evrard-kernel-grad": 0xb4246cf212789d52,
	"square-4ranks":      0xcec62de75df2d7d0,
	"sod-serial":         0x28b33c938852bf46,
}

func generate(t *testing.T, name string, n, nn int) (*part.Set, core.Config) {
	t.Helper()
	sc, err := scenario.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	ps, cfg, err := sc.Generate(scenario.Params{N: n, NNeighbors: nn})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SPH.Workers = 2
	return ps, cfg
}

func serialChecksum(t *testing.T, ps *part.Set, cfg core.Config) uint64 {
	t.Helper()
	sim, err := core.New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(3, 0); err != nil {
		t.Fatal(err)
	}
	return sim.PS.Checksum()
}

func TestPinnedChecksums(t *testing.T) {
	// Go fuses x*y+z into FMA instructions on arm64, ppc64 and s390x, which
	// rounds differently; the pinned bits are those of amd64.
	if runtime.GOARCH != "amd64" {
		t.Skipf("checksums are pinned for amd64, not %s", runtime.GOARCH)
	}
	got := map[string]uint64{}

	ps, cfg := generate(t, "evrard", 1000, 50)
	got["evrard-serial"] = serialChecksum(t, ps, cfg)

	ps, cfg = generate(t, "evrard", 1000, 50)
	cfg.SPH.Gradients = sph.KernelDerivatives
	got["evrard-kernel-grad"] = serialChecksum(t, ps, cfg)

	ps, cfg = generate(t, "sod", 1000, 50)
	got["sod-serial"] = serialChecksum(t, ps, cfg)

	ps, cfg = generate(t, "square", 1000, 50)
	end, res, err := core.RunParallelCapture(core.ParallelConfig{
		Core:         cfg,
		Machine:      perfmodel.PizDaint(),
		Cores:        48,
		RanksPerNode: 1,
		Decomp:       domain.MortonSFC,
		Cost: core.CodeCost{
			TreeRate: 1e6, SearchRate: 5e6, PairRate: 2e6, EOSRate: 1e8,
			GravNodeRate: 3e6, GravPairRate: 3e6, UpdateRate: 1e8, HSweeps: 3,
		},
		Steps: 3,
	}, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != 4 {
		t.Fatalf("square ran on %d ranks, want 4", res.Ranks)
	}
	got["square-4ranks"] = end.Checksum()

	for name, want := range pinnedChecksums {
		if got[name] != want {
			t.Errorf("%s: checksum %#x, pinned %#x", name, got[name], want)
		}
	}
}

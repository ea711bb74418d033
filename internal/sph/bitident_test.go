package sph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/eos"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/vec"
)

// TestMomentumEnergyPinnedBits pins MomentumEnergy's output bits on a small
// sinc-5 lattice with one particle's IAD matrix zeroed, so every branch of
// the pair loop runs: IAD on both sides, IAD on i with the kernel-derivative
// fallback on j, the fallback on i, and plain kernel derivatives. The
// pinned hashes were recorded before the force loop stopped evaluating
// kernel gradients it discards; any change to them is a numerics change.
func TestMomentumEnergyPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bits are pinned for amd64, not %s", runtime.GOARCH)
	}
	pinned := map[GradientMode]struct {
		hash         uint64
		maxVSignal   float64
		interactions int64
	}{
		KernelDerivatives: {0x79d65dbf70d67311, 3.5830022614288417, 8536},
		IAD:               {0x584016db97a03807, 3.5830022614288417, 8536},
	}
	for _, mode := range []GradientMode{KernelDerivatives, IAD} {
		p := &Params{
			Kernel:     kernel.NewSinc(5),
			EOS:        eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 40,
			Gradients:  mode,
			Volumes:    GeneralizedVolume,
			Workers:    2,
		}
		if err := p.Defaults(); err != nil {
			t.Fatal(err)
		}
		ps, pbc, box := ic.UniformCube(6, p.NNeighbors)
		p.PBC, p.Box = pbc, box
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < ps.NLocal; i++ {
			// A lattice jitter well inside the half-spacing keeps every
			// position in the unit box and gives each particle its own h.
			ps.Pos[i] = ps.Pos[i].Add(vec.V3{
				X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5,
			}.Scale(0.04))
			ps.Vel[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.1)
			ps.U[i] = 1 + 0.2*rng.Float64()
		}
		tr := BuildTree(ps, p)
		nl := UpdateSmoothingLengths(ps, tr, p)
		Density(ps, nl, p)
		EquationOfState(ps, p)
		ComputeIAD(ps, nl, p)
		ps.Tau[17] = vec.Sym33{}

		st := MomentumEnergy(ps, nl, p)
		h := fnv.New64a()
		var b [8]byte
		put := func(x float64) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for i := 0; i < ps.NLocal; i++ {
			put(ps.Acc[i].X)
			put(ps.Acc[i].Y)
			put(ps.Acc[i].Z)
			put(ps.DU[i])
		}
		want := pinned[mode]
		if got := h.Sum64(); got != want.hash {
			t.Errorf("%v: Acc/DU hash %#x, pinned %#x", mode, got, want.hash)
		}
		if st.MaxVSignal != want.maxVSignal || st.Interactions != want.interactions {
			t.Errorf("%v: stats {%v %d}, pinned {%v %d}", mode,
				st.MaxVSignal, st.Interactions, want.maxVSignal, want.interactions)
		}
	}
}

package sph

import (
	"math"
	"runtime"

	"repro/internal/par"
	"repro/internal/part"
)

// Density computes per-particle density from the neighbor list (part of step
// 3 of Algorithm 1), honoring the configured volume-element mode, and then
// fills the volume elements ps.VE.
//
// StandardVolume:    rho_i = sum_j m_j W_ij(h_i) (self term included),
//
//	V_i = m_i / rho_i.
//
// GeneralizedVolume: X = m/rho_prev (the previous density estimate; a
// standard summation bootstraps it when rho is zero), then
//
//	kappa_i = sum_j X_j W_ij(h_i) (self included),
//	V_i = X_i / kappa_i, rho_i = m_i / V_i.
func Density(ps *part.Set, nl *NeighborList, p *Params) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := ps.NLocal
	k := p.Kernel

	needBootstrap := false
	if p.Volumes == GeneralizedVolume {
		for i := 0; i < ps.Len(); i++ {
			if ps.Rho[i] <= 0 {
				needBootstrap = true
				break
			}
		}
	}

	if p.Volumes == StandardVolume || needBootstrap {
		par.For(n, workers, serialBelow, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				h := ps.H[i]
				rho := ps.Mass[i] * k.W(0, h)
				for _, j := range nl.Of(i) {
					d := p.PBC.Wrap(ps.Pos[i].Sub(ps.Pos[j]))
					rho += ps.Mass[j] * k.W(d.Norm(), h)
				}
				ps.Rho[i] = rho
				ps.VE[i] = ps.Mass[i] / rho
			}
		})
		if p.Volumes == StandardVolume {
			return
		}
	}

	// Generalized volume elements: X from the current density estimate.
	x := make([]float64, ps.Len())
	for i := range x {
		if ps.Rho[i] > 0 {
			x[i] = ps.Mass[i] / ps.Rho[i]
		} else {
			x[i] = ps.Mass[i] // ghost without density: mass-proportional
		}
	}
	par.For(n, workers, serialBelow, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			h := ps.H[i]
			kappa := x[i] * k.W(0, h)
			for _, j := range nl.Of(i) {
				d := p.PBC.Wrap(ps.Pos[i].Sub(ps.Pos[j]))
				kappa += x[j] * k.W(d.Norm(), h)
			}
			ve := x[i] / kappa
			ps.VE[i] = ve
			ps.Rho[i] = ps.Mass[i] / ve
		}
	})
}

// EquationOfState fills pressure and sound speed from density and internal
// energy for all particles (owned and ghosts).
func EquationOfState(ps *part.Set, p *Params) {
	for i := 0; i < ps.Len(); i++ {
		ps.P[i] = p.EOS.Pressure(ps.Rho[i], ps.U[i])
		ps.C[i] = p.EOS.SoundSpeed(ps.Rho[i], ps.U[i])
	}
}

// ComputeIAD fills ps.Tau with the inverse IAD moment matrices
// C_i = tau_i^{-1}, tau_i = sum_j V_j (r_j - r_i)(r_j - r_i)^T W_ij(h_i)
// (García-Senz et al. 2012). Particles whose tau is numerically singular
// (degenerate neighbor geometry) get a zero matrix; the force loop falls
// back to kernel derivatives for them. Returns the number of fallbacks.
func ComputeIAD(ps *part.Set, nl *NeighborList, p *Params) int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := ps.NLocal
	k := p.Kernel
	fallbacks := make([]int, workers+1)
	par.For(n, workers, serialBelow, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			h := ps.H[i]
			var tau [6]float64 // xx, xy, xz, yy, yz, zz
			for _, j := range nl.Of(i) {
				d := p.PBC.Wrap(ps.Pos[j].Sub(ps.Pos[i])) // r_j - r_i
				w := k.W(d.Norm(), h)
				vj := ps.VE[j]
				s := vj * w
				tau[0] += s * d.X * d.X
				tau[1] += s * d.X * d.Y
				tau[2] += s * d.X * d.Z
				tau[3] += s * d.Y * d.Y
				tau[4] += s * d.Y * d.Z
				tau[5] += s * d.Z * d.Z
			}
			m := sym33FromArray(tau)
			inv, ok := m.Inverse()
			if !ok || !isWellConditioned(m) {
				fallbacks[w]++
				ps.Tau[i] = zeroSym()
				continue
			}
			ps.Tau[i] = inv
		}
	})
	total := 0
	for _, f := range fallbacks {
		total += f
	}
	return total
}

// isWellConditioned rejects tau matrices whose determinant is tiny relative
// to their trace cubed, a scale-free conditioning proxy.
func isWellConditioned(m interface {
	Det() float64
	Trace() float64
}) bool {
	tr := m.Trace()
	if tr <= 0 {
		return false
	}
	det := m.Det()
	return det > 1e-12*tr*tr*tr/27 && !math.IsNaN(det)
}

package sph

import (
	"math"
	"runtime"

	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/vec"
)

// ForceStats aggregates diagnostics from a momentum/energy evaluation.
type ForceStats struct {
	// MaxVSignal is the largest pairwise signal speed encountered,
	// vsig = c_i + c_j - 3 min(0, v_ij . rhat_ij), which drives the Courant
	// time-step.
	MaxVSignal float64
	// Interactions is the number of particle pairs evaluated.
	Interactions int64
}

// MomentumEnergy evaluates hydrodynamic accelerations and du/dt for all
// owned particles (the core of step 3 in Algorithm 1), writing ps.Acc and
// ps.DU. Gravity, if enabled, is added separately by the caller.
//
// With KernelDerivatives gradients the equation set is the classic Monaghan
// symmetrized form with averaged kernels:
//
//	dv_i/dt = -sum_j m_j (P_i/rho_i^2 + P_j/rho_j^2 + Pi_ij) gradWbar_ij
//	du_i/dt =  sum_j m_j (P_i/rho_i^2 + Pi_ij/2) v_ij . gradWbar_ij
//
// With IAD gradients, gradW(h_i) is replaced by A_ij = C_i (r_j - r_i)
// W_ij(h_i) and gradW(h_j) by A'_ij = C_j (r_j - r_i) W_ij(h_j), the pair
// force remaining exactly antisymmetric (García-Senz et al. 2012):
//
//	dv_i/dt = -sum_j m_j (P_i/rho_i^2 A_ij + P_j/rho_j^2 A'_ij) - visc
//
// Pi_ij is the Monaghan-Gingold artificial viscosity.
func MomentumEnergy(ps *part.Set, nl *NeighborList, p *Params) ForceStats {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := ps.NLocal
	k := p.Kernel
	useIAD := p.Gradients == IAD

	stats := make([]ForceStats, workers+1)
	par.For(n, workers, serialBelow, func(w, lo, hi int) {
		st := &stats[w]
		for i := lo; i < hi; i++ {
			hi1 := ps.H[i]
			rhoi := ps.Rho[i]
			pri := ps.P[i] / (rhoi * rhoi)
			ci := ps.C[i]
			Ci := ps.Tau[i]
			iadOK := useIAD && Ci != (vec.Sym33{})

			var acc vec.V3
			var du float64
			for _, j := range nl.Of(i) {
				d := p.PBC.Wrap(ps.Pos[j].Sub(ps.Pos[i])) // r_j - r_i
				r2 := d.Norm2()
				if r2 == 0 {
					continue // coincident particles exert no pair force
				}
				r := math.Sqrt(r2)
				hj := ps.H[j]
				rhoj := ps.Rho[j]
				prj := ps.P[j] / (rhoj * rhoj)

				// Gradient surrogates at h_i and h_j. Kernel gradients
				// (-W'/r * d = |W'| dhat, from i toward j, W' < 0 inside
				// support) are only evaluated on the branches that use them:
				// with IAD on both sides, the common case, none is needed.
				var ai, aj vec.V3
				if iadOK {
					wi := k.W(r, hi1)
					ai = Ci.MulVec(d).Scale(wi)
					Cj := ps.Tau[j]
					if Cj != (vec.Sym33{}) {
						wj := k.W(r, hj)
						aj = Cj.MulVec(d).Scale(wj)
					} else {
						aj = d.Scale(-k.GradW(r, hj) / r)
					}
				} else {
					ai = d.Scale(-k.GradW(r, hi1) / r)
					aj = d.Scale(-k.GradW(r, hj) / r)
				}

				// Artificial viscosity (Monaghan & Gingold 1983): active for
				// approaching pairs, v_ij . x_ij < 0 with x_ij = r_i - r_j = -d.
				vij := ps.Vel[i].Sub(ps.Vel[j])
				vdotx := -vij.Dot(d)
				var piij float64
				hbar := 0.5 * (hi1 + hj)
				cbar := 0.5 * (ci + ps.C[j])
				rhobar := 0.5 * (rhoi + rhoj)
				wsig := vdotx / r
				if vdotx < 0 {
					mu := hbar * vdotx / (r2 + p.EtaVisc*p.EtaVisc*hbar*hbar)
					piij = (-p.AlphaVisc*cbar*mu + p.BetaVisc*mu*mu) / rhobar
				}
				if vs := ci + ps.C[j] - 3*math.Min(0, wsig); vs > st.MaxVSignal {
					st.MaxVSignal = vs
				}

				// Pair force: -(P_i/rho_i^2) A_ij - (P_j/rho_j^2) A'_ij,
				// viscosity on the symmetrized gradient.
				abar := ai.Add(aj).Scale(0.5)
				acc = acc.MulAdd(ps.Mass[j]*pri, ai.Neg()).
					MulAdd(ps.Mass[j]*prj, aj.Neg()).
					MulAdd(-ps.Mass[j]*piij, abar)

				// Energy: du_i/dt = sum m_j (P_i/rho_i^2) v_ij.A_ij
				//                 + 0.5 sum m_j Pi_ij v_ij.Abar.
				du += ps.Mass[j] * pri * vij.Dot(ai)
				du += 0.5 * ps.Mass[j] * piij * vij.Dot(abar)
				st.Interactions++
			}
			ps.Acc[i] = acc
			ps.DU[i] = du
			// Self signal speed floor: isolated particles still need a
			// Courant bound.
			if 2*ci > st.MaxVSignal {
				st.MaxVSignal = 2 * ci
			}
		}
	})

	var total ForceStats
	for _, st := range stats {
		if st.MaxVSignal > total.MaxVSignal {
			total.MaxVSignal = st.MaxVSignal
		}
		total.Interactions += st.Interactions
	}
	return total
}

func sym33FromArray(a [6]float64) vec.Sym33 {
	return vec.Sym33{XX: a[0], XY: a[1], XZ: a[2], YY: a[3], YZ: a[4], ZZ: a[5]}
}

func zeroSym() vec.Sym33 { return vec.Sym33{} }

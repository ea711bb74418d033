package sph

import (
	"math"
	"runtime"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/tree"
)

// NeighborList stores, for every owned particle, the indices of its
// neighbors within kernel support (2h), in compressed-sparse-row layout.
// The query particle itself is excluded.
type NeighborList struct {
	Offsets []int32 // len nLocal+1
	Nbr     []int32
}

// Count returns the neighbor count of particle i.
func (nl *NeighborList) Count(i int) int {
	return int(nl.Offsets[i+1] - nl.Offsets[i])
}

// Of returns the neighbor indices of particle i.
func (nl *NeighborList) Of(i int) []int32 {
	return nl.Nbr[nl.Offsets[i]:nl.Offsets[i+1]]
}

// BuildTree constructs the octree for the particle set under params (step 1
// of Algorithm 1).
func BuildTree(ps *part.Set, p *Params) *tree.Tree {
	return tree.Build(ps.Pos, tree.Options{
		LeafCap: p.LeafCap,
		Workers: p.Workers,
		PBC:     p.PBC,
		Box:     p.Box,
	})
}

// UpdateSmoothingLengths iterates each owned particle's h until its neighbor
// count is within HTolerance of NNeighbors (step 2 of Algorithm 1: "find
// neighbors and smoothing length"; the paper notes the simulation targets a
// given neighbor number, which determines h). Returns the neighbor list at
// the final smoothing lengths.
func UpdateSmoothingLengths(ps *part.Set, tr *tree.Tree, p *Params) *NeighborList {
	n := ps.NLocal
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	target := float64(p.NNeighbors)

	counts := make([]int32, n)
	par.For(n, workers, serialBelow, func(_, lo, hi int) {
		buf := make([]tree.Hit, 0, 2*p.NNeighbors)
		for i := lo; i < hi; i++ {
			h := ps.H[i]
			converged := false
			for iter := 0; iter < p.HMaxIter; iter++ {
				buf = tr.BallSearch(ps.Pos[i], kernel.SupportRadius*h, buf[:0])
				cnt := float64(len(buf) - 1) // exclude self
				if cnt < 1 {
					// Lost all neighbors: expand aggressively.
					h *= 1.5
					continue
				}
				if math.Abs(cnt-target) <= p.HTolerance*target {
					converged = true
					break
				}
				// n scales as h^3 at fixed local density: fixed-point step
				// damped by 1/2 for stability.
				f := math.Cbrt(target / cnt)
				h *= 0.5 * (1 + f)
			}
			ps.H[i] = h
			// A converged iteration already searched at the final h; only
			// an iteration that ran out of steps updated h after its last
			// search.
			if !converged {
				buf = tr.BallSearch(ps.Pos[i], kernel.SupportRadius*h, buf[:0])
			}
			// A non-finite particle (NaN position or h after a physics
			// blowup) matches nothing, not even itself, making len(buf)-1
			// negative; clamp to keep the CSR prefix sum monotone so the
			// blowup is reported by the conservation/NaN watchdogs instead
			// of an index panic here.
			counts[i] = max32(int32(len(buf)-1), 0)
		}
	})

	nl := &NeighborList{Offsets: make([]int32, n+1)}
	var total int32
	for i, c := range counts {
		nl.Offsets[i] = total
		total += c
		ps.NN[i] = c
	}
	nl.Offsets[n] = total
	nl.Nbr = make([]int32, total)

	par.For(n, workers, serialBelow, func(_, lo, hi int) {
		buf := make([]tree.Hit, 0, 2*p.NNeighbors)
		for i := lo; i < hi; i++ {
			buf = tr.BallSearch(ps.Pos[i], kernel.SupportRadius*ps.H[i], buf[:0])
			k := nl.Offsets[i]
			for _, hit := range buf {
				if hit.Idx == int32(i) && hit.Dist2 == 0 {
					continue
				}
				if k < nl.Offsets[i+1] {
					nl.Nbr[k] = hit.Idx
					k++
				}
			}
			// If the double search raced with nothing (it cannot — positions
			// are immutable here), counts match; fill any shortfall with the
			// last neighbor to keep CSR well-formed.
			for ; k < nl.Offsets[i+1]; k++ {
				nl.Nbr[k] = nl.Nbr[max32(k-1, nl.Offsets[i])]
			}
		}
	})
	return nl
}

// BuildNeighborList builds the CSR neighbor list at the current smoothing
// lengths, without adapting them — used after a checkpoint restart (h is
// already converged) and by tests that pin h.
func BuildNeighborList(ps *part.Set, tr *tree.Tree, p *Params) *NeighborList {
	n := ps.NLocal
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	counts := make([]int32, n)
	par.For(n, workers, serialBelow, func(_, lo, hi int) {
		buf := make([]tree.Hit, 0, 2*p.NNeighbors)
		for i := lo; i < hi; i++ {
			buf = tr.BallSearch(ps.Pos[i], kernel.SupportRadius*ps.H[i], buf[:0])
			// Clamped for the same reason as in UpdateSmoothingLengths: a
			// non-finite particle finds nothing, not even itself.
			counts[i] = max32(int32(len(buf)-1), 0)
		}
	})
	nl := &NeighborList{Offsets: make([]int32, n+1)}
	var total int32
	for i, c := range counts {
		nl.Offsets[i] = total
		total += c
		ps.NN[i] = c
	}
	nl.Offsets[n] = total
	nl.Nbr = make([]int32, total)
	par.For(n, workers, serialBelow, func(_, lo, hi int) {
		buf := make([]tree.Hit, 0, 2*p.NNeighbors)
		for i := lo; i < hi; i++ {
			buf = tr.BallSearch(ps.Pos[i], kernel.SupportRadius*ps.H[i], buf[:0])
			k := nl.Offsets[i]
			for _, hit := range buf {
				if hit.Idx == int32(i) && hit.Dist2 == 0 {
					continue
				}
				if k < nl.Offsets[i+1] {
					nl.Nbr[k] = hit.Idx
					k++
				}
			}
			for ; k < nl.Offsets[i+1]; k++ {
				nl.Nbr[k] = nl.Nbr[max32(k-1, nl.Offsets[i])]
			}
		}
	})
	return nl
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// serialBelow is the particle count under which the sph loops run on the
// caller instead of fanning out (par.For's grain).
const serialBelow = 64

package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// skipArchPow skips where math.Pow is an assembly routine rather than the
// portable square-and-multiply that powInt reproduces.
func skipArchPow(t *testing.T) {
	t.Helper()
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow is architecture-specific on s390x")
	}
}

// sincQGrid returns a dense grid over (0, 2), including the largest float
// below 2, where the sinc base s = sin(x)/x is smallest.
func sincQGrid() []float64 {
	const n = 200000
	qs := make([]float64, 0, n+1)
	for i := 1; i < n; i++ {
		qs = append(qs, 2*float64(i)/n)
	}
	return append(qs, math.Nextafter(2, 0), math.Nextafter(0, 1), 1e-300)
}

func TestPowIntMatchesMathPow(t *testing.T) {
	skipArchPow(t)
	rng := rand.New(rand.NewSource(3))
	var bases []float64
	for i := 0; i < 20000; i++ {
		bases = append(bases, 1-rng.Float64()) // (0, 1]
	}
	bases = append(bases, 1)
	for _, q := range sincQGrid() {
		x := math.Pi * q / 2
		if s := math.Sin(x) / x; s > 0 {
			bases = append(bases, s)
		}
	}
	for e := 2; e <= maxExactPow; e++ {
		for _, s := range bases {
			got, want := powInt(s, e), math.Pow(s, float64(e))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("powInt(%v, %d) = %v, math.Pow = %v", s, e, got, want)
			}
		}
	}
}

// powSincProfile is the sinc profile as evaluated with math.Pow for every
// exponent, the reference the fast path must reproduce bit for bit.
func powSincProfile(n float64) (w, dw func(float64) float64) {
	w = func(q float64) float64 {
		if q <= 0 {
			return 1
		}
		x := math.Pi * q / 2
		s := math.Sin(x) / x
		if s <= 0 {
			return 0
		}
		return math.Pow(s, n)
	}
	dw = func(q float64) float64 {
		if q <= 0 {
			return 0
		}
		x := math.Pi * q / 2
		s := math.Sin(x) / x
		if s <= 0 {
			return 0
		}
		ds := (math.Pi / 2) * (math.Cos(x)/x - math.Sin(x)/(x*x))
		return n * math.Pow(s, n-1) * ds
	}
	return w, dw
}

func TestSincMatchesPowReference(t *testing.T) {
	skipArchPow(t)
	for _, n := range []float64{5, 6, 5.5} {
		k := NewSinc(n).(*base)
		w, dw := powSincProfile(n)
		ref := &base{nm: k.nm, sigma: normalize3D(w), w: w, dw: dw}
		if k.sigma != ref.sigma {
			t.Fatalf("%s: sigma %v, reference %v", k.nm, k.sigma, ref.sigma)
		}
		for _, h := range []float64{0.013, 0.5, 1, 3.7} {
			for _, q := range sincQGrid() {
				r := q * h
				for _, c := range []struct {
					name     string
					got, ref float64
				}{
					{"W", k.W(r, h), ref.W(r, h)},
					{"GradW", k.GradW(r, h), ref.GradW(r, h)},
					{"DWDh", k.DWDh(r, h), ref.DWDh(r, h)},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.ref) {
						t.Fatalf("%s h=%v r=%v: %s = %v, reference %v",
							k.nm, h, r, c.name, c.got, c.ref)
					}
				}
			}
		}
	}
}

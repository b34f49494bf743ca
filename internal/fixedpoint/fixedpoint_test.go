package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

// defaultParams mirrors the DCQCN defaults of [31] at 40 Gb/s with 1 KB
// packets: C = 5e6 pkt/s, R_AI = 40 Mb/s = 5e3 pkt/s, τ = 50 µs, τ' = T =
// 55 µs, B = 10 MB = 1e4 pkt, F = 5, K_min/K_max = 5/200 KB, P_max = 1%.
func defaultParams(n int) DCQCNParams {
	return DCQCNParams{
		N: n, C: 5e6, RAI: 5e3,
		Tau: 50e-6, TauPrime: 55e-6, T: 55e-6,
		B: 1e4, F: 5,
		Kmin: 5, Kmax: 200, Pmax: 0.01,
		G: 1.0 / 256, TauStar: 4e-6,
	}
}

func TestBisectKnownRoots(t *testing.T) {
	cases := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) float64 { return x - 3 }, 0, 10, 3},
		{"quadratic", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"endpoint lo", func(x float64) float64 { return x }, 0, 1, 0},
		{"endpoint hi", func(x float64) float64 { return x - 1 }, 0, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Bisect(c.f, c.lo, c.hi, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-c.want) > 1e-10 {
				t.Errorf("root = %v, want %v", got, c.want)
			}
		})
	}
}

func TestBisectSwappedInterval(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x - 3 }, 10, 0, 1e-12)
	if err != nil || math.Abs(got-3) > 1e-10 {
		t.Errorf("root = %v, err = %v; want 3, nil", got, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err == nil {
		t.Error("expected ErrNoBracket")
	}
}

// The Eq. 12 kernel must not lose tiny marking probabilities to float
// cancellation: at p = 1e-12 its closed forms agree with the p→0 limits it
// takes just below, so the switch between the two is seamless. A naive
// 1-math.Pow(1-p, x) is off by 2e-5 there.
func TestDCQCNRatesAccuracy(t *testing.T) {
	pr := defaultParams(10)
	rc := pr.C / float64(pr.N)
	closed := NewDCQCNRates(&pr, 1e-12, 0)
	limit := NewDCQCNRates(&pr, 0.999999e-12, 0)
	a1, d1, e1, al1 := closed.Flow(rc)
	a2, d2, e2, al2 := limit.Flow(rc)
	for _, c := range []struct {
		term        string
		closed, lim float64
	}{{"a", a1, a2}, {"b", closed.B, limit.B}, {"c", closed.C, limit.C}, {"d", d1, d2}, {"e", e1, e2}, {"alpha", al1, al2}} {
		if rel := math.Abs(c.closed-c.lim) / math.Abs(c.lim); !(rel < 1e-5) {
			t.Errorf("%s: closed form %v vs p→0 limit %v (rel %v)", c.term, c.closed, c.lim, rel)
		}
	}
	// At p = 0 the closed forms are 0/0; the limits keep Eq. 11 finite and
	// negative, as it is everywhere below the fixed point.
	if r := DCQCNResidual(pr, 0); !(r < 0) {
		t.Errorf("DCQCNResidual(p=0) = %v, want negative", r)
	}
}

func TestSolveDCQCNUnique(t *testing.T) {
	fp, err := SolveDCQCN(defaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	if fp.P <= 0 || fp.P >= 1 {
		t.Fatalf("p* = %v out of (0,1)", fp.P)
	}
	// Residual changes sign at p*.
	pr := defaultParams(10)
	if DCQCNResidual(pr, fp.P*0.9) >= 0 {
		t.Error("residual below p* should be negative")
	}
	if DCQCNResidual(pr, math.Min(fp.P*1.1, 0.999)) <= 0 {
		t.Error("residual above p* should be positive")
	}
	if fp.RC != pr.C/10 {
		t.Errorf("R_C* = %v, want fair share %v", fp.RC, pr.C/10)
	}
	if fp.RT <= fp.RC {
		t.Errorf("R_T* = %v should exceed R_C* = %v", fp.RT, fp.RC)
	}
	if fp.Q <= pr.Kmin || fp.Q >= pr.Kmax {
		t.Errorf("q* = %v packets, want within RED thresholds (%v, %v)", fp.Q, pr.Kmin, pr.Kmax)
	}
	if fp.Alpha <= 0 || fp.Alpha >= 1 {
		t.Errorf("α* = %v out of (0,1)", fp.Alpha)
	}
}

// Eq. 14's Taylor approximation should be close to the exact root where its
// premise holds (the paper notes p* is "typically very close to 0"); for
// large N, p* grows and the O(p⁴) truncation degrades, but it must stay the
// right order of magnitude and an over-estimate (the dropped (1-p)^{FB}
// attenuation makes the true p* smaller).
func TestEq14ApproxMatchesExact(t *testing.T) {
	for _, n := range []int{1, 2, 4, 10, 16, 64} {
		pr := defaultParams(n)
		fp, err := SolveDCQCN(pr)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		approx := DCQCNPStarApprox(pr)
		rel := math.Abs(approx-fp.P) / fp.P
		if n <= 4 && rel > 0.30 {
			t.Errorf("N=%d (small-p regime): approx p*=%v vs exact %v (rel err %.1f%%)", n, approx, fp.P, rel*100)
		}
		if ratio := approx / fp.P; ratio < 0.5 || ratio > 2 {
			t.Errorf("N=%d: approx p*=%v vs exact %v (ratio %.2f out of [0.5,2])", n, approx, fp.P, ratio)
		}
		if n >= 10 && approx < fp.P {
			t.Errorf("N=%d: Taylor approx %v should over-estimate exact %v", n, approx, fp.P)
		}
	}
}

// The steady-state queue grows with the number of flows — the q*-vs-N
// dependence that motivates the PI controller in §5.
func TestQStarGrowsWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		fp, err := SolveDCQCN(defaultParams(n))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if fp.Q <= prev {
			t.Errorf("q*(N=%d) = %v not greater than previous %v", n, fp.Q, prev)
		}
		prev = fp.Q
	}
}

func TestQFromPInverse(t *testing.T) {
	pr := defaultParams(2)
	q := pr.QFromP(pr.Pmax) // p = Pmax should land exactly on Kmax
	if math.Abs(q-pr.Kmax) > 1e-9 {
		t.Errorf("QFromP(Pmax) = %v, want Kmax = %v", q, pr.Kmax)
	}
	if q0 := pr.QFromP(0); math.Abs(q0-pr.Kmin) > 1e-9 {
		t.Errorf("QFromP(0) = %v, want Kmin = %v", q0, pr.Kmin)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := defaultParams(2)
	mutations := []func(*DCQCNParams){
		func(p *DCQCNParams) { p.N = 0 },
		func(p *DCQCNParams) { p.C = -1 },
		func(p *DCQCNParams) { p.RAI = 0 },
		func(p *DCQCNParams) { p.Tau = 0 },
		func(p *DCQCNParams) { p.TauPrime = -1 },
		func(p *DCQCNParams) { p.T = 0 },
		func(p *DCQCNParams) { p.B = 0 },
		func(p *DCQCNParams) { p.F = 0 },
		func(p *DCQCNParams) { p.Kmax = p.Kmin },
		func(p *DCQCNParams) { p.Pmax = 0 },
		func(p *DCQCNParams) { p.Pmax = 1.5 },
		func(p *DCQCNParams) { p.G = 1 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid params %+v", i, p)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("Validate rejected defaults: %v", err)
	}
}

func TestPatchedTimelyQStar(t *testing.T) {
	// 10 Gb/s = 1.25e9 B/s, T_low = 50 µs → q' = 62500 B; δ = 10 Mb/s =
	// 1.25e6 B/s; β = 0.008.
	c := 1.25e9
	qp := c * 50e-6
	delta := 1.25e6
	beta := 0.008
	q1 := PatchedTimelyQStar(1, delta, beta, c, qp)
	want := 1*delta*qp/(beta*c) + qp
	if math.Abs(q1-want) > 1e-6 {
		t.Errorf("q*(1) = %v, want %v", q1, want)
	}
	// Linear growth in N (Eq. 31): q*(2N) - q' = 2(q*(N) - q').
	q2 := PatchedTimelyQStar(2, delta, beta, c, qp)
	q4 := PatchedTimelyQStar(4, delta, beta, c, qp)
	if math.Abs((q4-qp)-2*(q2-qp)) > 1e-6 {
		t.Errorf("q* not linear in N: q2=%v q4=%v q'=%v", q2, q4, qp)
	}
}

// Property: Eq. 11's LHS is monotonically increasing in p on (0, 1), which
// is the core of the uniqueness proof in Theorem 1.
func TestPropertyResidualMonotonic(t *testing.T) {
	pr := defaultParams(8)
	f := func(a, b uint16) bool {
		p1 := 1e-6 + float64(a)/float64(math.MaxUint16)*0.5
		p2 := 1e-6 + float64(b)/float64(math.MaxUint16)*0.5
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if p2-p1 < 1e-9 {
			return true
		}
		return DCQCNResidual(pr, p1) <= DCQCNResidual(pr, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SolveDCQCN satisfies Eq. 11 (residual ~ 0) across a parameter
// sweep, and p* stays in (0, Pmax·10) for sane configurations.
func TestPropertyFixedPointSatisfiesEq11(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 20, 50, 100} {
		for _, cGbps := range []float64{10, 40, 100} {
			pr := defaultParams(n)
			pr.C = cGbps * 1e9 / 8 / 1000
			fp, err := SolveDCQCN(pr)
			if err != nil {
				t.Fatalf("N=%d C=%g: %v", n, cGbps, err)
			}
			res := DCQCNResidual(pr, fp.P)
			scale := pr.Tau * pr.Tau * pr.RAI * fp.RC
			if math.Abs(res)/scale > 1e-6 {
				t.Errorf("N=%d C=%g: residual %v not ~0 (scale %v)", n, cGbps, res, scale)
			}
		}
	}
}

func BenchmarkSolveDCQCN(b *testing.B) {
	pr := defaultParams(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDCQCN(pr); err != nil {
			b.Fatal(err)
		}
	}
}

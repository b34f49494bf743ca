package ode

import (
	"math"
	"testing"
	"testing/quick"
)

// dy/dt = -y, y(0)=1 → y(t) = e^{-t}.
func TestExponentialDecay(t *testing.T) {
	s := &Solver{
		Sys: Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = -y[0] }},
		H:   1e-3, Y0: []float64{1},
	}
	y := s.Integrate(0, 2, nil)
	want := math.Exp(-2)
	if math.Abs(y[0]-want) > 1e-9 {
		t.Errorf("y(2) = %v, want %v", y[0], want)
	}
}

// Harmonic oscillator preserves energy to O(h^4) per step.
func TestHarmonicOscillator(t *testing.T) {
	s := &Solver{
		Sys: Func{N: 2, F: func(_ float64, y, d []float64) {
			d[0] = y[1]
			d[1] = -y[0]
		}},
		H: 1e-3, Y0: []float64{1, 0},
	}
	y := s.Integrate(0, 2*math.Pi, nil)
	// The horizon is rounded to a whole number of steps, so compare against
	// the exact solution at the realised end time and check that energy is
	// conserved to RK4 accuracy.
	steps := math.Round(2 * math.Pi / s.H)
	tEnd := steps * s.H
	if math.Abs(y[0]-math.Cos(tEnd)) > 1e-8 || math.Abs(y[1]-(-math.Sin(tEnd))) > 1e-8 {
		t.Errorf("y(%v) = %v, want [%v %v]", tEnd, y, math.Cos(tEnd), -math.Sin(tEnd))
	}
	if e := y[0]*y[0] + y[1]*y[1]; math.Abs(e-1) > 1e-10 {
		t.Errorf("energy = %v, want 1", e)
	}
}

// RK4 global error should shrink ~16x when h halves (4th order).
func TestConvergenceOrder(t *testing.T) {
	errAt := func(h float64) float64 {
		s := &Solver{
			Sys: Func{N: 1, F: func(tt float64, y, d []float64) { d[0] = math.Cos(tt) * y[0] }},
			H:   h, Y0: []float64{1},
		}
		y := s.Integrate(0, 1, nil)
		return math.Abs(y[0] - math.Exp(math.Sin(1)))
	}
	e1 := errAt(1e-2)
	e2 := errAt(5e-3)
	ratio := e1 / e2
	if ratio < 12 || ratio > 20 {
		t.Errorf("error ratio %v for halved step, want ~16 (4th order)", ratio)
	}
}

// Linear DDE dy/dt = -y(t-τ) with constant initial history y=1.
// For τ < π/2 the solution decays; for τ > π/2 it oscillates with growing
// amplitude. This is the classic stability boundary the DCQCN/TIMELY
// analysis revolves around, so the solver must reproduce it.
func TestDDEStabilityBoundary(t *testing.T) {
	run := func(tau float64) float64 {
		sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
			d[0] = -past.Value(tt-tau, 0)
		}}
		s := &Solver{Sys: sys, H: 1e-3, MaxDelay: tau, Y0: []float64{1}}
		maxLate := 0.0
		s.Integrate(0, 40, func(tt float64, y []float64) {
			if tt > 30 {
				if a := math.Abs(y[0]); a > maxLate {
					maxLate = a
				}
			}
		})
		return maxLate
	}
	if amp := run(1.0); amp > 0.05 {
		t.Errorf("τ=1.0 (< π/2): late amplitude %v, want decay toward 0", amp)
	}
	if amp := run(2.0); amp < 10 {
		t.Errorf("τ=2.0 (> π/2): late amplitude %v, want growth", amp)
	}
}

// DDE with known exact solution: dy/dt = y(t-1) with y(t)=1 on [-1,0] gives
// y(t) = 1 + t on [0,1], then y(t) = 1 + t + (t-1)^2/2 on [1,2].
func TestDDEMethodOfSteps(t *testing.T) {
	sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = past.Value(tt-1, 0)
	}}
	s := &Solver{Sys: sys, H: 1e-4, MaxDelay: 1, Y0: []float64{1}}
	y := s.Integrate(0, 2, nil)
	want := 1.0 + 2.0 + 0.5 // 1 + t + (t-1)^2/2 at t=2
	if math.Abs(y[0]-want) > 1e-5 {
		t.Errorf("y(2) = %v, want %v", y[0], want)
	}
}

func TestInitialHistoryFunction(t *testing.T) {
	// dy/dt = y(t-1) with y(t) = t for t<=0 → on [0,1], dy/dt = t-1,
	// y(t) = y0 + t^2/2 - t with y(0)=0 → y(1) = -0.5.
	sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = past.Value(tt-1, 0)
	}}
	s := &Solver{
		Sys: sys, H: 1e-4, MaxDelay: 1, Y0: []float64{0},
		InitHistory: func(tt float64, out []float64) { out[0] = tt },
	}
	y := s.Integrate(0, 1, nil)
	if math.Abs(y[0]-(-0.5)) > 1e-6 {
		t.Errorf("y(1) = %v, want -0.5", y[0])
	}
}

func TestObserverSeesEveryStep(t *testing.T) {
	s := &Solver{
		Sys: Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = 1 }},
		H:   0.1, Y0: []float64{0},
	}
	var times []float64
	s.Integrate(0, 1, func(tt float64, y []float64) { times = append(times, tt) })
	if len(times) != 11 {
		t.Fatalf("observer called %d times, want 11", len(times))
	}
	if times[0] != 0 || math.Abs(times[10]-1) > 1e-12 {
		t.Errorf("observer times = [%v ... %v], want [0 ... 1]", times[0], times[10])
	}
}

type clampedSys struct{}

func (clampedSys) Dim() int { return 1 }
func (clampedSys) Derivs(_ float64, y []float64, _ History, d []float64) {
	d[0] = -10 // drive hard negative
}
func (clampedSys) PostStep(_ float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
}

func TestPostStepClamping(t *testing.T) {
	s := &Solver{Sys: clampedSys{}, H: 0.01, Y0: []float64{0.05}}
	y := s.Integrate(0, 1, func(_ float64, yy []float64) {
		if yy[0] < 0 {
			t.Fatalf("observed negative state %v despite PostStep clamp", yy[0])
		}
	})
	if y[0] != 0 {
		t.Errorf("final state %v, want 0", y[0])
	}
}

func TestHistoryTooSmallPanics(t *testing.T) {
	sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = -past.Value(tt-1.0, 0) // lag 1.0 but MaxDelay says 0.1
	}}
	s := &Solver{Sys: sys, H: 1e-3, MaxDelay: 0.1, Y0: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lookup beyond MaxDelay")
		}
	}()
	s.Integrate(0, 2, nil)
}

func TestBadConfigPanics(t *testing.T) {
	cases := []struct {
		name string
		s    *Solver
	}{
		{"zero step", &Solver{Sys: Func{N: 1, F: func(_ float64, y, d []float64) {}}, H: 0, Y0: []float64{1}}},
		{"nil system", &Solver{H: 1, Y0: []float64{1}}},
		{"dim mismatch", &Solver{Sys: Func{N: 2, F: func(_ float64, y, d []float64) {}}, H: 1, Y0: []float64{1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.s.Integrate(0, 1, nil)
		})
	}
}

// Property: for the linear system dy/dt = -k y the numeric solution is
// always positive, decreasing, and bounded by the initial value.
func TestPropertyLinearDecayInvariants(t *testing.T) {
	f := func(k8 uint8, y8 uint8) bool {
		k := 0.1 + float64(k8)/64.0
		y0 := 0.1 + float64(y8)/16.0
		s := &Solver{
			Sys: Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = -k * y[0] }},
			H:   1e-3, Y0: []float64{y0},
		}
		prev := math.Inf(1)
		ok := true
		s.Integrate(0, 1, func(_ float64, y []float64) {
			if y[0] <= 0 || y[0] > y0*(1+1e-12) || y[0] >= prev+1e-15 {
				ok = false
			}
			prev = y[0]
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: history interpolation is exact for linear trajectories.
func TestPropertyHistoryLinearExact(t *testing.T) {
	f := func(slope8 int8) bool {
		slope := float64(slope8) / 16.0
		hist := newHistory(1, 100, 0.1, 0, []float64{0}, nil, false)
		for i := 1; i <= 50; i++ {
			tt := float64(i) * 0.1
			hist.push(tt, []float64{slope * tt}, nil, nil)
		}
		for _, tq := range []float64{0.05, 0.333, 1.77, 4.99, 5.0} {
			want := slope * tq
			if math.Abs(hist.Value(tq, 0)-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistoryRingWraparound(t *testing.T) {
	hist := newHistory(1, 10, 1.0, 0, []float64{0}, nil, false)
	for i := 1; i <= 100; i++ {
		hist.push(float64(i), []float64{float64(i) * 2}, nil, nil)
	}
	// Only the last 10 points are retained: t in [91, 100].
	if got := hist.Value(95.5, 0); math.Abs(got-191) > 1e-12 {
		t.Errorf("Value(95.5) = %v, want 191", got)
	}
	// Extrapolation just past the newest point.
	if got := hist.Value(100.4, 0); math.Abs(got-200.8) > 1e-12 {
		t.Errorf("Value(100.4) = %v, want 200.8 (extrapolated)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for evicted history point")
		}
	}()
	hist.Value(50, 0)
}

func BenchmarkRK4DDE(b *testing.B) {
	sys := DelayFunc{N: 4, F: func(tt float64, y []float64, past History, d []float64) {
		for i := range d {
			d[i] = -past.Value(tt-0.01, i) * 0.5
		}
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &Solver{Sys: sys, H: 1e-4, MaxDelay: 0.01, Y0: []float64{1, 2, 3, 4}}
		s.Integrate(0, 0.1, nil)
	}
}

// Hermite history interpolation must beat linear interpolation on a DDE
// whose history has curvature: the oscillatory dy/dt = -y(t-1), integrated
// with a coarse step and compared against a fine-step reference.
func TestHermiteBeatsLinearHistory(t *testing.T) {
	solve := func(h float64, linear bool) float64 {
		sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
			d[0] = -past.Value(tt-1, 0)
		}}
		s := &Solver{Sys: sys, H: h, MaxDelay: 1, Y0: []float64{1}, LinearHistory: linear}
		y := s.Integrate(0, 5, nil)
		return y[0]
	}
	ref := solve(1e-4, false)
	lin := math.Abs(solve(0.05, true) - ref)
	herm := math.Abs(solve(0.05, false) - ref)
	if herm >= lin/5 {
		t.Errorf("Hermite error %v not clearly better than linear %v", herm, lin)
	}
}

// Hermite interpolation is exact for cubics when the stored slopes are
// exact, and at least quadratic-exact through the solver pipeline.
func TestHermiteQuadraticExact(t *testing.T) {
	// dy/dt = 2t → y = t², slopes exact at step starts. A delayed lookup
	// of y(t-τ) must reproduce (t-τ)² essentially exactly.
	sys := DelayFunc{N: 2, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = 2 * tt
		d[1] = past.Value(tt-0.35, 0) // integrates y(t-0.35)
	}}
	s := &Solver{Sys: sys, H: 0.01, MaxDelay: 0.4, Y0: []float64{0, 0}}
	y := s.Integrate(0, 1, nil)
	// ∫₀¹ max(t-0.35,0)² dt with history y=0 before t=0.35... the delayed
	// argument (t-0.35)² applies for t ≥ 0.35; before that the initial
	// history (0) holds: integral = (1-0.35)³/3.
	want := math.Pow(0.65, 3) / 3
	if math.Abs(y[1]-want) > 1e-9 {
		t.Errorf("∫y(t-τ) = %v, want %v", y[1], want)
	}
}

// refValue is the interior history lookup written out directly from the
// ring, with no memo: the oracle the memoised lookups must match bit for
// bit.
func refValue(hs *history, tq float64, idx int) float64 {
	f := (tq - hs.oldestTime()) / hs.h
	i := int(f)
	a := f - float64(i)
	p0, p1 := hs.point(i)[idx], hs.point(i + 1)[idx]
	if hs.slope == nil {
		return p0 + a*(p1-p0)
	}
	r0 := (hs.start + i) % hs.capac * hs.dim
	r1 := (hs.start + i + 1) % hs.capac * hs.dim
	d0 := hs.slope[r0+idx] * hs.h
	d1 := hs.slope[r1+idx] * hs.h
	a2 := a * a
	a3 := a2 * a
	return (2*a3-3*a2+1)*p0 + (a3-2*a2+a)*d0 + (-2*a3+3*a2)*p1 + (a3-a2)*d1
}

// memoHistory is a 3-component history of capacity capac with n pushed
// steps of step 0.1 whose states and slopes are distinct per component.
func memoHistory(capac, n int, hermite bool) *history {
	hs := newHistory(3, capac, 0.1, 0, []float64{1, 2, 3}, nil, hermite)
	for i := 1; i <= n; i++ {
		tt := float64(i) * 0.1
		y := []float64{math.Sin(tt), math.Cos(3 * tt), tt * tt}
		dy := []float64{math.Cos(tt), -3 * math.Sin(3*tt), 2 * tt}
		hs.push(tt, y, dy, dy)
	}
	return hs
}

// checkBits fails unless the lookup at (tq, idx) matches the oracle exactly.
func checkBits(t *testing.T, hs *history, tq float64, idx int) {
	t.Helper()
	got, want := hs.Value(tq, idx), refValue(hs, tq, idx)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Value(%v, %d) = %v, want %v (bitwise)", tq, idx, got, want)
	}
}

// Every component read at one lag after the first is served from the memo,
// and must carry the same bits as a fresh lookup, in both interpolation
// modes.
func TestHistoryMemoHitMatchesFreshLookup(t *testing.T) {
	for _, hermite := range []bool{true, false} {
		hs := memoHistory(8, 20, hermite)
		for _, tq := range []float64{1.35, 1.4, 1.47, 1.91, 1.999} {
			for idx := 0; idx < 3; idx++ {
				checkBits(t, hs, tq, idx)
				if hs.memoT != tq {
					t.Errorf("hermite=%v: interior lookup at %v not memoised (memo %v)", hermite, tq, hs.memoT)
				}
			}
			for idx := 2; idx >= 0; idx-- {
				checkBits(t, hs, tq, idx)
			}
		}
	}
}

// push must invalidate the memo: it rewrites the previous newest point's
// slope and may evict the memoised rows.
func TestHistoryPushInvalidatesMemo(t *testing.T) {
	hs := memoHistory(4, 10, true)
	tq := 0.95 // between the two newest points
	checkBits(t, hs, tq, 1)
	hs.push(1.1, []float64{9, 9, 9}, []float64{-50, 50, 7}, []float64{1, 1, 1})
	if !math.IsNaN(hs.memoT) {
		t.Fatalf("memo survived push: %v", hs.memoT)
	}
	checkBits(t, hs, tq, 1) // reads the slope push just rewrote

	old := hs.oldestTime() + 0.05
	checkBits(t, hs, old, 0)
	for i := 12; i <= 14; i++ {
		hs.push(float64(i)*0.1, []float64{0, 0, 0}, nil, nil)
	}
	defer func() {
		if recover() == nil {
			t.Error("lookup of an evicted point was served instead of panicking")
		}
	}()
	hs.Value(old, 0)
}

// The ingress-marking bisection alternates lags within one right-hand side;
// each switch must re-derive the rows and weights, never reuse stale ones.
func TestHistoryMemoAlternatingLags(t *testing.T) {
	for _, hermite := range []bool{true, false} {
		hs := memoHistory(16, 30, hermite)
		lags := []float64{2.25, 1.62, 2.25, 2.93, 1.62, 1.62, 2.931, 2.25}
		for k, tq := range lags {
			checkBits(t, hs, tq, k%3)
			checkBits(t, hs, tq, (k+1)%3)
		}
	}
}

// Lookups at or before t0 (the initial history) and past the newest point
// (extrapolation) bypass the memo and leave it intact.
func TestHistoryMemoBypassBranches(t *testing.T) {
	hs := memoHistory(32, 10, true)
	hs.init = func(tt float64, out []float64) { out[0], out[1], out[2] = tt, 2*tt, 3*tt }
	checkBits(t, hs, 0.55, 2)
	if got := hs.Value(-0.2, 1); got != -0.4 {
		t.Errorf("initial-history lookup = %v, want -0.4", got)
	}
	last, prev := hs.point(hs.n - 1)[0], hs.point(hs.n - 2)[0]
	if got, want := hs.Value(1.04, 0), last+0.4*(last-prev); math.Abs(got-want) > 1e-15 {
		t.Errorf("extrapolated lookup = %v, want %v", got, want)
	}
	if hs.memoT != 0.55 {
		t.Errorf("bypass branches disturbed the memo: %v", hs.memoT)
	}
	checkBits(t, hs, 0.55, 0)
}

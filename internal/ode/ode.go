// Package ode integrates systems of ordinary and delay differential
// equations (DDEs) with a fixed-step classical Runge-Kutta (RK4) scheme.
//
// The fluid models of DCQCN and TIMELY are DDEs: their right-hand sides
// reference state at earlier times (the feedback delay τ* in DCQCN, the
// state-dependent RTT τ' in TIMELY). Go has no numerical DDE ecosystem, so
// this package provides one from scratch: a dense, uniformly-spaced history
// ring buffer serves past-state lookups at arbitrary (possibly
// state-dependent) lags, by cubic Hermite interpolation from the stored
// step derivatives (or linear interpolation, with Solver.LinearHistory).
package ode

import (
	"fmt"
	"math"
)

// System is a differential system dy/dt = f(t, y, history). Implementations
// must not retain y, dydt, or the History beyond the call.
type System interface {
	// Dim returns the number of state variables.
	Dim() int
	// Derivs evaluates the right-hand side at time t with state y, writing
	// the derivative into dydt. past provides access to the state at any
	// earlier time; pure ODEs simply ignore it.
	Derivs(t float64, y []float64, past History, dydt []float64)
}

// PostStepper is an optional extension of System: after each accepted step
// the solver calls PostStep, which may clamp or otherwise adjust the state
// in place (e.g. queue length >= 0, rates within [Rmin, C]).
type PostStepper interface {
	PostStep(t float64, y []float64)
}

// History provides interpolated access to past solution values.
type History interface {
	// Value returns component idx of the state at time tq. Times at or
	// before the start of integration are served by the initial history;
	// times slightly past the newest stored point (as happens for delayed
	// lookups inside a Runge-Kutta stage) are linearly extrapolated.
	Value(tq float64, idx int) float64
}

// Solver integrates a System with fixed step H from an initial state Y0.
type Solver struct {
	Sys System
	// H is the integration step in the system's time unit (seconds for the
	// fluid models). Must be > 0.
	H float64
	// MaxDelay bounds the largest lag the system will ever request. The
	// history buffer keeps ceil(MaxDelay/H)+4 points. Zero is valid for
	// pure ODEs.
	MaxDelay float64
	// Y0 is the initial state at t0; it is copied, not aliased.
	Y0 []float64
	// InitHistory, if non-nil, supplies the pre-t0 history y(t), t <= t0.
	// When nil the history is the constant Y0.
	InitHistory func(t float64, out []float64)
	// LinearHistory falls back to linear interpolation between stored
	// history points. The default is cubic Hermite, which uses the exact
	// step-start derivatives the integrator computes anyway and keeps the
	// delayed lookups at RK4's own accuracy. Linear remains available for
	// systems whose PostStep clamping makes stored slopes inconsistent
	// with the clamped states.
	LinearHistory bool
}

// Observer receives the solution after every accepted step (and once for the
// initial condition). The slice is reused; copy what you keep.
type Observer func(t float64, y []float64)

type history struct {
	t0    float64 // time of ring[head]
	h     float64
	n     int // points stored
	capac int
	dim   int
	buf   []float64 // capac*dim ring of states
	slope []float64 // capac*dim ring of dy/dt at each point (Hermite mode)
	start int       // index of oldest point
	tcur  float64   // time of newest point
	init  func(t float64, out []float64)
	y0    []float64
	tmp   []float64

	// The last interior lookup: its time, the buf offsets of the two
	// bracketing points and their interpolation weights (memoW[0] alone
	// in linear mode). A system reads many components at one lag, so each
	// lag's weights are computed once. push invalidates it by setting
	// memoT to NaN, which equals no query time.
	memoT float64
	memo0 int
	memo1 int
	memoW [4]float64
}

func newHistory(dim, capac int, h, t0 float64, y0 []float64, init func(float64, []float64), hermite bool) *history {
	hs := &history{h: h, capac: capac, dim: dim, init: init}
	hs.buf = make([]float64, capac*dim)
	if hermite {
		hs.slope = make([]float64, capac*dim)
	}
	hs.y0 = append([]float64(nil), y0...)
	hs.tmp = make([]float64, dim)
	hs.t0 = t0
	hs.tcur = t0
	copy(hs.buf[:dim], y0)
	hs.n = 1
	hs.memoT = math.NaN()
	return hs
}

// push appends the state at time t (must be tcur + h). dy, if history runs
// in Hermite mode, is the derivative at the NEW point's predecessor — the
// k1 of the step that just completed, which is the exact f(t_prev, y_prev).
// The new point's own slope is provisionally dyEnd (the step's k4, an
// O(h²) endpoint estimate) until the next step overwrites it exactly.
func (hs *history) push(t float64, y, dyPrev, dyEnd []float64) {
	prevIdx := (hs.start + hs.n - 1) % hs.capac
	var idx int
	if hs.n < hs.capac {
		idx = (hs.start + hs.n) % hs.capac
		hs.n++
	} else {
		idx = hs.start
		hs.start = (hs.start + 1) % hs.capac
	}
	copy(hs.buf[idx*hs.dim:(idx+1)*hs.dim], y)
	if hs.slope != nil {
		if dyPrev != nil && prevIdx != idx {
			copy(hs.slope[prevIdx*hs.dim:(prevIdx+1)*hs.dim], dyPrev)
		}
		if dyEnd != nil {
			copy(hs.slope[idx*hs.dim:(idx+1)*hs.dim], dyEnd)
		}
	}
	hs.tcur = t
	hs.memoT = math.NaN()
}

// point returns the i-th stored point (0 = oldest).
func (hs *history) point(i int) []float64 {
	idx := (hs.start + i) % hs.capac
	return hs.buf[idx*hs.dim : (idx+1)*hs.dim]
}

func (hs *history) oldestTime() float64 { return hs.tcur - float64(hs.n-1)*hs.h }

func (hs *history) Value(tq float64, idx int) float64 {
	if tq <= hs.t0 {
		if hs.init != nil {
			hs.init(tq, hs.tmp)
			return hs.tmp[idx]
		}
		return hs.y0[idx]
	}
	if tq != hs.memoT && !hs.locate(tq) {
		// At or beyond the newest point: linear extrapolation from the
		// last two points (constant if only one exists). Runge-Kutta
		// stages evaluate at t+h/2 and t+h, so a lag smaller than the
		// step lands here; the overshoot is at most one step.
		last := hs.point(hs.n - 1)
		if hs.n == 1 {
			return last[idx]
		}
		prev := hs.point(hs.n - 2)
		a := (tq - hs.tcur) / hs.h
		return last[idx] + a*(last[idx]-prev[idx])
	}
	p0, p1, w := hs.buf[hs.memo0+idx], hs.buf[hs.memo1+idx], &hs.memoW
	if hs.slope == nil {
		return p0 + w[0]*(p1-p0)
	}
	// Cubic Hermite: third-order accurate between stored points, versus
	// second-order for the linear form — the interpolation no longer
	// limits RK4's global order on delayed lookups.
	d0 := hs.slope[hs.memo0+idx] * hs.h
	d1 := hs.slope[hs.memo1+idx] * hs.h
	return w[0]*p0 + w[1]*d0 + w[2]*p1 + w[3]*d1
}

// locate memoises the bracketing points and weights of an interior lookup
// at tq. It reports false, leaving the memo alone, when tq lies at or past
// the newest point.
func (hs *history) locate(tq float64) bool {
	oldest := hs.oldestTime()
	if tq < oldest {
		panic(fmt.Sprintf("ode: history lookup at t=%g before oldest stored %g; increase Solver.MaxDelay", tq, oldest))
	}
	// Fractional index into the uniformly spaced ring.
	f := (tq - oldest) / hs.h
	i := int(f)
	if i >= hs.n-1 {
		return false
	}
	a := f - float64(i)
	hs.memoT = tq
	hs.memo0 = (hs.start + i) % hs.capac * hs.dim
	hs.memo1 = (hs.start + i + 1) % hs.capac * hs.dim
	if hs.slope == nil {
		hs.memoW[0] = a
		return true
	}
	a2 := a * a
	a3 := a2 * a
	hs.memoW = [4]float64{2*a3 - 3*a2 + 1, a3 - 2*a2 + a, -2*a3 + 3*a2, a3 - a2}
	return true
}

// Integrate advances the system from t0 to t1 (t1 > t0), invoking obs (if
// non-nil) at t0 and after every step. It returns the final state.
func (s *Solver) Integrate(t0, t1 float64, obs Observer) []float64 {
	if s.H <= 0 {
		panic("ode: step H must be positive")
	}
	if s.Sys == nil {
		panic("ode: nil system")
	}
	dim := s.Sys.Dim()
	if len(s.Y0) != dim {
		panic(fmt.Sprintf("ode: len(Y0)=%d but system dimension is %d", len(s.Y0), dim))
	}
	if math.IsNaN(s.MaxDelay) || s.MaxDelay < 0 {
		panic("ode: invalid MaxDelay")
	}
	capac := int(math.Ceil(s.MaxDelay/s.H)) + 4
	hist := newHistory(dim, capac, s.H, t0, s.Y0, s.InitHistory, !s.LinearHistory)

	y := append([]float64(nil), s.Y0...)
	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	yt := make([]float64, dim)

	ps, hasPost := s.Sys.(PostStepper)

	if obs != nil {
		obs(t0, y)
	}
	h := s.H
	steps := int(math.Round((t1 - t0) / h))
	t := t0
	for step := 0; step < steps; step++ {
		s.Sys.Derivs(t, y, hist, k1)
		for i := 0; i < dim; i++ {
			yt[i] = y[i] + 0.5*h*k1[i]
		}
		s.Sys.Derivs(t+0.5*h, yt, hist, k2)
		for i := 0; i < dim; i++ {
			yt[i] = y[i] + 0.5*h*k2[i]
		}
		s.Sys.Derivs(t+0.5*h, yt, hist, k3)
		for i := 0; i < dim; i++ {
			yt[i] = y[i] + h*k3[i]
		}
		s.Sys.Derivs(t+h, yt, hist, k4)
		for i := 0; i < dim; i++ {
			y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t = t0 + float64(step+1)*h
		if hasPost {
			ps.PostStep(t, y)
		}
		hist.push(t, y, k1, k4)
		if obs != nil {
			obs(t, y)
		}
	}
	return y
}

// Func adapts a plain function to the System interface for pure ODEs.
type Func struct {
	N int
	F func(t float64, y, dydt []float64)
}

// Dim implements System.
func (f Func) Dim() int { return f.N }

// Derivs implements System.
func (f Func) Derivs(t float64, y []float64, _ History, dydt []float64) { f.F(t, y, dydt) }

// DelayFunc adapts a function with history access to the System interface.
type DelayFunc struct {
	N int
	F func(t float64, y []float64, past History, dydt []float64)
}

// Dim implements System.
func (f DelayFunc) Dim() int { return f.N }

// Derivs implements System.
func (f DelayFunc) Derivs(t float64, y []float64, past History, dydt []float64) {
	f.F(t, y, past, dydt)
}

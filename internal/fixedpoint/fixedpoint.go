// Package fixedpoint computes the steady-state operating points the paper
// derives: the unique DCQCN fixed point (Theorem 1, Eq. 9-14) and the patched
// TIMELY fixed point (Theorem 5, Eq. 31), plus the generic scalar
// root-finding they need.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when the supplied interval does not bracket a
// sign change.
var ErrNoBracket = errors.New("fixedpoint: interval does not bracket a root")

// Bisect finds a root of f within [lo, hi] to absolute tolerance tol on the
// argument. f(lo) and f(hi) must have opposite signs (zero endpoints are
// returned directly).
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break // float resolution reached
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if math.Signbit(fm) == math.Signbit(flo) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// DCQCNParams are the fluid-model parameters of Table 1. Rates are in
// packets/second and buffer quantities in packets, so the per-packet marking
// probability p composes directly with them.
type DCQCNParams struct {
	N        int     // flows sharing the bottleneck
	C        float64 // bottleneck capacity, packets/s
	RAI      float64 // additive increase step, packets/s
	Tau      float64 // CNP generation timer τ, s
	TauPrime float64 // α update interval τ', s
	T        float64 // rate-increase timer, s
	B        float64 // byte counter, packets
	F        float64 // fast recovery stages (5)
	Kmin     float64 // RED min threshold, packets
	Kmax     float64 // RED max threshold, packets
	Pmax     float64 // RED max marking probability
	G        float64 // DCTCP-style gain g
	TauStar  float64 // control loop (feedback) delay τ*, s
}

// Physical range limits Validate enforces. They are generous — orders of
// magnitude beyond any datacenter operating point — but finite: the Eq. 11
// residual and the Eq. 9/10 fixed-point algebra are only guaranteed
// NaN-free and overflow-free inside these bounds (subnormal timers can
// drive the residual to 0/0, and a Pmax below ~1e-6 with a Kmax near 1e12
// overflows q*; both found by FuzzDCQCNValidateSolve).
const (
	MaxFlows   = 1e9  // N
	MinRate    = 1e-3 // C, RAI, packets/s
	MaxRate    = 1e12 // C, RAI, packets/s (8 Pb/s at 1 KB packets)
	MinTimer   = 1e-9 // Tau, TauPrime, T, s
	MaxTimer   = 10.0 // Tau, TauPrime, T, TauStar, s
	MinPackets = 1e-6 // B
	MaxPackets = 1e12 // B, Kmin, Kmax
	MinPmax    = 1e-6
	MaxStages  = 1e3 // F
)

// Validate reports whether the parameters are physically meaningful. Every
// float must be finite: NaN compares false against any threshold, so without
// the explicit check a NaN capacity or timer would sail through the range
// tests below and poison the Eq. 11 bisection (found by FuzzDCQCNValidateSolve).
// The magnitude bounds guarantee SolveDCQCN neither panics nor returns a
// non-finite "fixed point" on any accepted input — the contract the fuzz
// test pins.
func (p DCQCNParams) Validate() error {
	for _, v := range []float64{p.C, p.RAI, p.Tau, p.TauPrime, p.T, p.B, p.F,
		p.Kmin, p.Kmax, p.Pmax, p.G, p.TauStar} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("dcqcn params: all parameters must be finite")
		}
	}
	switch {
	case p.N <= 0:
		return errors.New("dcqcn params: N must be positive")
	case float64(p.N) > MaxFlows:
		return errors.New("dcqcn params: N is beyond any physical fabric")
	case p.C <= 0, p.RAI <= 0:
		return errors.New("dcqcn params: rates must be positive")
	case p.C < MinRate, p.C > MaxRate, p.RAI < MinRate, p.RAI > MaxRate:
		return errors.New("dcqcn params: rates must be physical (packets/s)")
	case p.Tau <= 0, p.TauPrime <= 0, p.T <= 0:
		return errors.New("dcqcn params: timers must be positive")
	case p.Tau < MinTimer, p.Tau > MaxTimer,
		p.TauPrime < MinTimer, p.TauPrime > MaxTimer,
		p.T < MinTimer, p.T > MaxTimer:
		return errors.New("dcqcn params: timers must be physical (seconds)")
	case p.TauStar < 0 || p.TauStar > MaxTimer:
		return errors.New("dcqcn params: feedback delay must be in [0, MaxTimer]")
	case p.B <= 0, p.F <= 0:
		return errors.New("dcqcn params: byte counter and F must be positive")
	case p.B < MinPackets, p.B > MaxPackets, p.F > MaxStages:
		return errors.New("dcqcn params: byte counter or F beyond physical range")
	case p.Kmax <= p.Kmin, p.Kmin < 0:
		return errors.New("dcqcn params: need 0 <= Kmin < Kmax")
	case p.Kmax > MaxPackets:
		return errors.New("dcqcn params: Kmax beyond physical range")
	case p.Pmax <= 0 || p.Pmax > 1:
		return errors.New("dcqcn params: Pmax must be in (0,1]")
	case p.Pmax < MinPmax:
		return errors.New("dcqcn params: Pmax below the solvable range")
	case p.G <= 0 || p.G >= 1:
		return errors.New("dcqcn params: g must be in (0,1)")
	}
	return nil
}

// DCQCNFixedPoint is the unique operating point of Theorem 1.
type DCQCNFixedPoint struct {
	P     float64 // marking probability p*
	Q     float64 // queue length q*, packets (Eq. 9)
	Alpha float64 // α* (Eq. 10)
	RC    float64 // per-flow rate C/N, packets/s
	RT    float64 // target rate at the fixed point, packets/s
}

// DCQCNRates is the Eq. 12 event-rate kernel at one marking probability p.
// It holds what depends on p alone — log1p(-p) and the flow-independent
// byte-counter terms b and c — so each flow's terms cost three expm1 and
// one exp. Every power (1-p)^x is evaluated as exp(x·log1p(-p)), which
// stays accurate for tiny p where 1-p rounds away. Below p = 1e-12 the
// closed forms are 0/0 and the kernel takes their p→0 limits instead:
// a → τ·rc·p, b,c → 1/B and d,e → 1/(T·rc).
type DCQCNRates struct {
	B, C float64 // Eq. 12's b and c

	pr   *DCQCNParams
	p    float64
	l    float64 // log1p(-p)
	rmin float64
}

// NewDCQCNRates builds the kernel at marking probability p. Flow clamps
// the delayed rate of its a, d and e terms to rmin (zero for none).
func NewDCQCNRates(pr *DCQCNParams, p, rmin float64) DCQCNRates {
	k := DCQCNRates{pr: pr, p: p, l: math.Log1p(-p), rmin: rmin}
	if p < 1e-12 {
		k.B = 1 / pr.B
		k.C = 1 / pr.B
		return k
	}
	denB := math.Expm1(-pr.B * k.l) // (1-p)^{-B} - 1
	k.B = p / denB
	k.C = math.Exp(pr.F*pr.B*k.l) * p / denB
	return k
}

// Flow returns the a, d and e terms of Eq. 12 for a flow whose delayed rate
// is rc, and the Eq. 5 α target 1-(1-p)^{τ' rc}, which uses rc unclamped.
func (k *DCQCNRates) Flow(rc float64) (a, d, e, alpha float64) {
	pr, p := k.pr, k.p
	alpha = -math.Expm1(pr.TauPrime * rc * k.l)
	if rc < k.rmin {
		rc = k.rmin
	}
	if p < 1e-12 {
		a = pr.Tau * rc * p // → 0 with the right slope
		d = 1 / (pr.T * rc)
		return a, d, d, alpha
	}
	a = -math.Expm1(pr.Tau * rc * k.l)   // 1-(1-p)^{τ rc}
	denT := math.Expm1(-pr.T * rc * k.l) // (1-p)^{-T rc} - 1
	d = p / denT
	e = math.Exp(pr.F*pr.T*rc*k.l) * p / denT
	return a, d, e, alpha
}

// DCQCNResidual is the left-hand side minus right-hand side of Eq. 11 at
// marking probability p with per-flow rate rc = C/N. It is negative for
// p below the fixed point and positive above it.
func DCQCNResidual(pr DCQCNParams, p float64) float64 {
	rc := pr.C / float64(pr.N)
	k := NewDCQCNRates(&pr, p, 0)
	a, d, e, alpha := k.Flow(rc)
	return a*a*alpha/((k.B+d)*(k.C+e)) - pr.Tau*pr.Tau*pr.RAI*rc
}

// SolveDCQCN finds the unique fixed point of Theorem 1 by bisection of
// Eq. 11 over p in (0, 1).
func SolveDCQCN(pr DCQCNParams) (DCQCNFixedPoint, error) {
	if err := pr.Validate(); err != nil {
		return DCQCNFixedPoint{}, err
	}
	rc := pr.C / float64(pr.N)
	f := func(p float64) float64 { return DCQCNResidual(pr, p) }
	p, err := Bisect(f, 1e-12, 1-1e-9, 1e-14)
	if err != nil {
		return DCQCNFixedPoint{}, fmt.Errorf("dcqcn fixed point: %w", err)
	}
	k := NewDCQCNRates(&pr, p, 0)
	a, _, e, alpha := k.Flow(rc)
	fp := DCQCNFixedPoint{
		P:     p,
		Q:     p/pr.Pmax*(pr.Kmax-pr.Kmin) + pr.Kmin, // Eq. 9
		Alpha: alpha,                                 // Eq. 10
		RC:    rc,
	}
	// R_T* from dR_T/dt = 0 (see the derivation of Eq. 11):
	// (R_T - R_C) a/τ = R_AI R_C (c+e).
	fp.RT = rc + pr.Tau*pr.RAI*rc*(k.C+e)/a
	return fp, nil
}

// DCQCNPStarApprox is the closed-form Taylor approximation of p* (Eq. 14):
//
//	p* ≈ cbrt( R_AI N² / (τ' C²) · (1/B + N/(T C))² ).
func DCQCNPStarApprox(pr DCQCNParams) float64 {
	n := float64(pr.N)
	inner := 1/pr.B + n/(pr.T*pr.C)
	return math.Cbrt(pr.RAI * n * n / (pr.TauPrime * pr.C * pr.C) * inner * inner)
}

// QFromP maps a marking probability to the RED steady-state queue (Eq. 9).
func (pr DCQCNParams) QFromP(p float64) float64 {
	return p/pr.Pmax*(pr.Kmax-pr.Kmin) + pr.Kmin
}

// PatchedTimelyQStar is the patched-TIMELY fixed-point queue of Eq. 31:
//
//	q* = N δ q' / (β C) + q'
//
// with q' the reference queue (C·T_low in the paper), δ the additive step,
// β the decrease factor and C the bottleneck capacity. Any consistent unit
// system works (the paper uses bytes and bytes/second).
func PatchedTimelyQStar(n int, delta, beta, c, qPrime float64) float64 {
	return float64(n)*delta*qPrime/(beta*c) + qPrime
}

package fluid

import (
	"fmt"

	"ecndelay/internal/fixedpoint"
)

// This file provides the symmetric-flow loop reductions consumed by
// internal/stability (they satisfy stability.LoopModel structurally): one
// representative flow's dynamics, driven by delayed observations of the
// shared queue, with the queue integrator factored out.

// DCQCNLoop reduces the DCQCN fluid model to its per-flow rate subsystem
// for the §3.2 phase-margin analysis. State z = (α, R_T, R_C); single
// feedback lag τ*.
type DCQCNLoop struct {
	sys *DCQCNSystem
}

// NewDCQCNLoop builds the reduction for the given parameters.
func NewDCQCNLoop(params fixedpoint.DCQCNParams) (*DCQCNLoop, error) {
	sys, err := NewDCQCN(DCQCNConfig{Params: params})
	if err != nil {
		return nil, err
	}
	return &DCQCNLoop{sys: sys}, nil
}

// StateDim implements stability.LoopModel.
func (l *DCQCNLoop) StateDim() int { return 3 }

// Delays implements stability.LoopModel.
func (l *DCQCNLoop) Delays() []float64 { return []float64{l.sys.cfg.Params.TauStar} }

// RateIndex implements stability.LoopModel: R_C is z[2].
func (l *DCQCNLoop) RateIndex() int { return 2 }

// FlowCount implements stability.LoopModel.
func (l *DCQCNLoop) FlowCount() int { return l.sys.cfg.Params.N }

// Equilibrium implements stability.LoopModel via Theorem 1.
func (l *DCQCNLoop) Equilibrium() ([]float64, float64, error) {
	fp, err := fixedpoint.SolveDCQCN(l.sys.cfg.Params)
	if err != nil {
		return nil, 0, err
	}
	return []float64{fp.Alpha, fp.RT, fp.RC}, fp.Q, nil
}

// Derivs implements stability.LoopModel: the per-flow slice of Eq. 5-7 with
// the queue (and hence marking probability) supplied externally.
func (l *DCQCNLoop) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	pr := &l.sys.cfg.Params
	k := fixedpoint.NewDCQCNRates(pr, REDMarkExtended(qd[0], pr.Kmin, pr.Kmax, pr.Pmax), l.sys.rmin)
	dcqcnFlow(pr, &k, z, zd[0][2], dzdt)
}

// DCQCNIngressLoop is the DCQCN loop reduction with ingress marking
// (Figure 17): the marking feedback path carries the extra lag q*/C frozen
// at the fixed point, while the rate self-feedback keeps the lag τ*. The
// phase-margin gap between this and DCQCNLoop is the analytical content of
// §5.2's egress-marking argument.
type DCQCNIngressLoop struct {
	inner *DCQCNLoop
	tauMk float64 // τ* + q*/C
}

// NewDCQCNIngressLoop builds the reduction.
func NewDCQCNIngressLoop(params fixedpoint.DCQCNParams) (*DCQCNIngressLoop, error) {
	inner, err := NewDCQCNLoop(params)
	if err != nil {
		return nil, err
	}
	fp, err := fixedpoint.SolveDCQCN(params)
	if err != nil {
		return nil, err
	}
	return &DCQCNIngressLoop{inner: inner, tauMk: params.TauStar + fp.Q/params.C}, nil
}

// StateDim implements stability.LoopModel.
func (l *DCQCNIngressLoop) StateDim() int { return 3 }

// Delays implements stability.LoopModel: lag 0 is the rate self-feedback
// (τ*), lag 1 the marking path (τ* + q*/C).
func (l *DCQCNIngressLoop) Delays() []float64 {
	return []float64{l.inner.sys.cfg.Params.TauStar, l.tauMk}
}

// RateIndex implements stability.LoopModel.
func (l *DCQCNIngressLoop) RateIndex() int { return 2 }

// FlowCount implements stability.LoopModel.
func (l *DCQCNIngressLoop) FlowCount() int { return l.inner.sys.cfg.Params.N }

// Equilibrium implements stability.LoopModel.
func (l *DCQCNIngressLoop) Equilibrium() ([]float64, float64, error) {
	return l.inner.Equilibrium()
}

// Derivs implements stability.LoopModel: identical dynamics to DCQCNLoop
// except the marking probability reads the queue at the staler lag.
func (l *DCQCNIngressLoop) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	l.inner.Derivs(z, zd, qd[1:], dzdt)
}

// PatchedTimelyLoop reduces the patched TIMELY model (Eq. 29) for the
// Figure 11 phase-margin analysis. State z = (R, g); two feedback lags:
// τ₁ = τ'(q*) and τ₂ = τ₁ + τ*, both frozen at the Eq. 31 fixed point.
type PatchedTimelyLoop struct {
	base  *timelyBase
	qStar float64
	tau1  float64
	tau2  float64
}

// NewPatchedTimelyLoop builds the reduction. It fails if the Eq. 31 fixed
// point falls outside the (C·T_low, C·T_high) gradient band, where the
// middle-branch linearisation would not apply.
func NewPatchedTimelyLoop(cfg TimelyConfig) (*PatchedTimelyLoop, error) {
	b, err := newTimelyBase(cfg, true)
	if err != nil {
		return nil, err
	}
	qStar := float64(cfg.N)*cfg.Delta*b.qref/(cfg.Beta*cfg.C) + b.qref
	if qStar <= cfg.C*cfg.TLow || qStar >= cfg.C*cfg.THigh {
		return nil, fmt.Errorf("fluid: patched TIMELY fixed point q*=%.0fB outside gradient band (%.0f, %.0f)",
			qStar, cfg.C*cfg.TLow, cfg.C*cfg.THigh)
	}
	l := &PatchedTimelyLoop{base: b, qStar: qStar}
	l.tau1 = b.feedbackDelay(qStar)
	l.tau2 = l.tau1 + b.tauStar(cfg.C/float64(cfg.N))
	return l, nil
}

// StateDim implements stability.LoopModel.
func (l *PatchedTimelyLoop) StateDim() int { return 2 }

// Delays implements stability.LoopModel.
func (l *PatchedTimelyLoop) Delays() []float64 { return []float64{l.tau1, l.tau2} }

// RateIndex implements stability.LoopModel: R is z[0].
func (l *PatchedTimelyLoop) RateIndex() int { return 0 }

// FlowCount implements stability.LoopModel.
func (l *PatchedTimelyLoop) FlowCount() int { return l.base.cfg.N }

// Equilibrium implements stability.LoopModel via Theorem 5 / Eq. 31.
func (l *PatchedTimelyLoop) Equilibrium() ([]float64, float64, error) {
	return []float64{l.base.cfg.C / float64(l.base.cfg.N), 0}, l.qStar, nil
}

// Derivs implements stability.LoopModel: the per-flow slice of Eq. 29 with
// qd[0] = q(t-τ₁) and qd[1] = q(t-τ₂).
func (l *PatchedTimelyLoop) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	cfg := l.base.cfg
	r, g := z[0], z[1]
	ts := l.base.tauStar(r)
	dzdt[1] = cfg.EWMA / ts * (-g + (qd[0]-qd[1])/(cfg.C*cfg.DminRTT))
	w := PatchedWeight(g)
	dzdt[0] = (1-w)*cfg.Delta/ts - w*cfg.Beta*r/ts*(qd[0]-l.base.qref)/l.base.qref
}

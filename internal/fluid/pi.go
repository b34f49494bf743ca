package fluid

import (
	"fmt"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/ode"
)

// PIConfig holds the Eq. 32 controller gains: dp/dt = K1·de/dt + K2·e.
// For the switch-side controller (DCQCN) the error e is the queue deviation
// in packets; for the host-side controller (TIMELY) it is the delay
// deviation in seconds. QRef is in the respective queue unit.
type PIConfig struct {
	K1   float64
	K2   float64
	QRef float64
	// PMax caps the controller output (anti-windup): without it the
	// line-rate start transient winds the integrator to p = 1, which then
	// drains at only K2·QRef per second. Zero means 0.1 for the switch
	// controller; the host controller is capped structurally instead.
	PMax float64
}

// DCQCNPIConfig configures DCQCN with PI marking at the switch (Figure 18):
// RED (a proportional controller) is replaced by the integral controller of
// Eq. 32 and the resulting p drives the usual DCQCN multiplicative decrease.
type DCQCNPIConfig struct {
	DCQCN DCQCNConfig
	PI    PIConfig // e in packets; QRef in packets
}

// DCQCNPISystem lays out state as y[0] = queue (packets), y[1] = marking
// probability p, then per-flow (α, R_T, R_C) triples.
type DCQCNPISystem struct {
	inner *DCQCNSystem // reused for parameters, clamps and jitter
	pi    PIConfig
}

// NewDCQCNPI validates the configuration and builds the system. Zero PI
// gains default to K1 = 2e-5 /packet, K2 = 1e-3 /packet/s, QRef = 50
// packets — a controller that holds ~50 KB of queue with 1 KB packets and
// stays stable for 2-64 flows at feedback delays up to ~100 µs.
func NewDCQCNPI(cfg DCQCNPIConfig) (*DCQCNPISystem, error) {
	inner, err := NewDCQCN(cfg.DCQCN)
	if err != nil {
		return nil, err
	}
	pi := cfg.PI
	if pi.K1 == 0 {
		pi.K1 = 2e-5
	}
	if pi.K2 == 0 {
		pi.K2 = 1e-3
	}
	if pi.QRef == 0 {
		pi.QRef = 50
	}
	if pi.PMax == 0 {
		pi.PMax = 0.1
	}
	return &DCQCNPISystem{inner: inner, pi: pi}, nil
}

// Dim implements ode.System.
func (s *DCQCNPISystem) Dim() int { return 2 + 3*s.inner.cfg.Params.N }

// QIndex returns the state index of the queue.
func (s *DCQCNPISystem) QIndex() int { return 0 }

// PIndex returns the state index of the PI marking probability.
func (s *DCQCNPISystem) PIndex() int { return 1 }

// AlphaIndex returns the state index of flow i's α.
func (s *DCQCNPISystem) AlphaIndex(i int) int { return 2 + 3*i }

// RTIndex returns the state index of flow i's target rate.
func (s *DCQCNPISystem) RTIndex(i int) int { return 3 + 3*i }

// RCIndex returns the state index of flow i's current rate.
func (s *DCQCNPISystem) RCIndex(i int) int { return 4 + 3*i }

// QRef reports the controller's queue reference in packets.
func (s *DCQCNPISystem) QRef() float64 { return s.pi.QRef }

// Initial returns the initial state: empty queue, p = 0, flows at line rate.
func (s *DCQCNPISystem) Initial() []float64 {
	y := make([]float64, s.Dim())
	base := s.inner.Initial()
	copy(y[2:], base[1:])
	return y
}

// Derivs implements ode.System.
func (s *DCQCNPISystem) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	pr := &s.inner.cfg.Params
	delay := pr.TauStar + s.inner.jit.value()
	tq := t - delay

	sum := 0.0
	for i := 0; i < pr.N; i++ {
		sum += y[s.RCIndex(i)]
	}
	dq := sum - pr.C
	if y[0] <= 0 && dq < 0 {
		dq = 0
	}
	dydt[0] = dq

	// Eq. 32 with e = q - QRef; de/dt = dq/dt.
	dydt[1] = s.pi.K1*dq + s.pi.K2*(y[0]-s.pi.QRef)
	if y[1] <= 0 && dydt[1] < 0 {
		dydt[1] = 0
	}
	if y[1] >= s.pi.PMax && dydt[1] > 0 {
		dydt[1] = 0
	}

	pHat := clamp(past.Value(tq, 1), 0, 1)
	k := fixedpoint.NewDCQCNRates(pr, pHat, s.inner.rmin)
	for i := 0; i < pr.N; i++ {
		j := s.AlphaIndex(i)
		dcqcnFlow(pr, &k, y[j:j+3], past.Value(tq, s.RCIndex(i)), dydt[j:j+3])
	}
}

// PostStep implements ode.PostStepper.
func (s *DCQCNPISystem) PostStep(_ float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
	y[1] = clamp(y[1], 0, s.pi.PMax)
	for i := 0; i < s.inner.cfg.Params.N; i++ {
		y[s.AlphaIndex(i)] = clamp(y[s.AlphaIndex(i)], 0, 1)
		y[s.RTIndex(i)] = clamp(y[s.RTIndex(i)], s.inner.rmin, s.inner.lineRate)
		y[s.RCIndex(i)] = clamp(y[s.RCIndex(i)], s.inner.rmin, s.inner.lineRate)
	}
	s.inner.jit.resample()
}

// MaxDelay reports the largest history lag requested.
func (s *DCQCNPISystem) MaxDelay() float64 { return s.inner.MaxDelay() }

// TimelyPIConfig configures patched TIMELY with an end-host PI controller
// (Figure 19): each sender integrates its own delay error into an internal
// variable p_i that replaces the (q-q')/q' term of Eq. 29.
type TimelyPIConfig struct {
	Timely TimelyConfig
	PI     PIConfig // e in seconds of queueing delay; QRef in bytes
}

// TimelyPISystem lays out state as y[0] = queue (bytes), then per-flow
// (R_i, g_i, p_i) triples.
type TimelyPISystem struct {
	base *timelyBase
	pi   PIConfig
	dref float64 // reference queueing delay, s
}

// NewTimelyPI validates the configuration and builds the system. Zero PI
// gains default to K1 = 500 /s, K2 = 2e4 /s², QRef = 300 KB (the Figure 19
// operating point).
func NewTimelyPI(cfg TimelyPIConfig) (*TimelyPISystem, error) {
	b, err := newTimelyBase(cfg.Timely, true)
	if err != nil {
		return nil, err
	}
	pi := cfg.PI
	if pi.K1 == 0 {
		pi.K1 = 500
	}
	if pi.K2 == 0 {
		pi.K2 = 2e4
	}
	if pi.QRef == 0 {
		pi.QRef = 300e3
	}
	if pi.QRef <= 0 || pi.QRef >= 16e6 {
		return nil, fmt.Errorf("fluid: TimelyPI QRef %v bytes out of range", pi.QRef)
	}
	return &TimelyPISystem{base: b, pi: pi, dref: pi.QRef / cfg.Timely.C}, nil
}

// Dim implements ode.System.
func (s *TimelyPISystem) Dim() int { return 1 + 3*s.base.cfg.N }

// QIndex returns the state index of the queue.
func (s *TimelyPISystem) QIndex() int { return 0 }

// RateIndex returns the state index of flow i's rate.
func (s *TimelyPISystem) RateIndex(i int) int { return 1 + 3*i }

// GradIndex returns the state index of flow i's RTT gradient.
func (s *TimelyPISystem) GradIndex(i int) int { return 2 + 3*i }

// PIndex returns the state index of flow i's internal PI variable.
func (s *TimelyPISystem) PIndex(i int) int { return 3 + 3*i }

// QRef reports the controller's queue reference in bytes.
func (s *TimelyPISystem) QRef() float64 { return s.pi.QRef }

// Initial returns the initial state with p_i = 0.
func (s *TimelyPISystem) Initial() []float64 {
	y := make([]float64, s.Dim())
	b := s.base.Initial()
	for i := 0; i < s.base.cfg.N; i++ {
		y[s.RateIndex(i)] = b[s.base.RateIndex(i)]
		y[s.GradIndex(i)] = b[s.base.GradIndex(i)]
	}
	return y
}

// Derivs implements ode.System.
func (s *TimelyPISystem) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	cfg := s.base.cfg
	sum := 0.0
	for i := 0; i < cfg.N; i++ {
		if s.base.active(i, t) {
			sum += y[s.RateIndex(i)]
		}
	}
	dq := sum - cfg.C
	if y[0] <= 0 && dq < 0 {
		dq = 0
	}
	dydt[0] = dq

	for i := 0; i < cfg.N; i++ {
		ri, gi, pi := s.RateIndex(i), s.GradIndex(i), s.PIndex(i)
		if !s.base.active(i, t) {
			dydt[ri], dydt[gi], dydt[pi] = 0, 0, 0
			continue
		}
		r := y[ri]
		g := y[gi]
		p := y[pi]
		ts := s.base.tauStar(r)
		qd, qd2 := s.base.sampleQueues(t, y[0], ts, past)
		dydt[gi] = cfg.EWMA / ts * (-g + (qd-qd2)/(cfg.C*cfg.DminRTT))

		// Host-side PI (Eq. 32): e = measured queueing delay - reference.
		// The controller runs once per completion event, so its integral
		// action scales with the flow's own update rate 1/τ*_i — this
		// per-flow sampling asymmetry is what lets the individual
		// integrators settle at different values (Theorem 6: delay can be
		// pinned, fairness cannot).
		e := qd/cfg.C - s.dref
		dedt := (qd - qd2) / ts / cfg.C
		dydt[pi] = s.pi.K1*dedt + s.pi.K2*e*(cfg.DminRTT/ts)

		switch {
		case qd < cfg.C*cfg.TLow:
			dydt[ri] = cfg.Delta / ts
		case qd > cfg.C*cfg.THigh:
			dydt[ri] = -cfg.Beta / ts * (1 - cfg.C*cfg.THigh/qd) * r
		default:
			w := PatchedWeight(g)
			dydt[ri] = (1-w)*cfg.Delta/ts - w*cfg.Beta*r/ts*p
		}
	}
}

// PostStep implements ode.PostStepper.
func (s *TimelyPISystem) PostStep(t float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
	for i := 0; i < s.base.cfg.N; i++ {
		if !s.base.active(i, t) {
			continue
		}
		if !s.base.started[i] {
			s.base.started[i] = true
			r := s.base.cfg.C / float64(s.base.cfg.N+1)
			if s.base.cfg.InitialRates != nil && s.base.cfg.InitialRates[i] > 0 {
				r = s.base.cfg.InitialRates[i]
			}
			y[s.RateIndex(i)] = r
		}
		y[s.RateIndex(i)] = clamp(y[s.RateIndex(i)], s.base.rmin, s.base.lineRate)
		y[s.GradIndex(i)] = clamp(y[s.GradIndex(i)], -100, 100)
		y[s.PIndex(i)] = clamp(y[s.PIndex(i)], -10, 100)
	}
	s.base.jit.resample()
}

// MaxDelay reports the largest history lag requested.
func (s *TimelyPISystem) MaxDelay() float64 { return s.base.MaxDelay() }

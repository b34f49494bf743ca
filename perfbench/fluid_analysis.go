package main

import (
	"fmt"
	"math"
	"math/rand"

	"ecndelay"
)

// The fluid-analysis workload: the paper's §3–4 analysis pipeline. Many
// small sweep jobs solve the Theorem 1 fixed point and the Appendix A
// phase margin of DCQCN and patched TIMELY over an N × τ* grid; a few
// large jobs integrate the delay-differential fluid models. It runs no
// DES event.

var (
	gridFlows  = []int{1, 2, 4, 8, 10, 16, 32, 64}
	gridDelays = []float64{1e-6, 25e-6, 50e-6, 85e-6, 100e-6}
)

const (
	fluidStep   = 1e-6 // RK4 step, s
	fluidSample = 1e-4 // trajectory sampling, s
	// Fig. 4 verdict thresholds on the tail queue's coefficient of
	// variation, as the repository's fig4 test asserts them.
	stableCV      = 0.1
	oscillatingCV = 0.3
)

func fluidAnalysisJobs(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []job
	for _, n := range gridFlows {
		for _, d := range gridDelays {
			jobs = append(jobs, gridJob(n, d))
		}
	}
	// Fig. 4: DCQCN at three flow counts and two feedback delays. N=64
	// costs ~30× N=2 per simulated second, so it runs the shortest
	// horizons on which its tail queue CV (0.035 at 4 µs, 0.058 at 85 µs)
	// is clearly under the stable threshold. Only the stability verdict
	// applies there: it has not yet settled onto q* within the
	// fluid-vs-fixed-point tolerance.
	type dc struct {
		n       int
		delay   float64
		horizon float64
		verdict string // "stable" or "oscillating"; "" for none
		fp      bool   // assert the Theorem 1 queue
	}
	for _, c := range []dc{
		{2, 4e-6, 0.08, "", true},
		{2, 85e-6, 0.08, "stable", true},
		{10, 4e-6, 0.08, "", true},
		{10, 85e-6, 0.08, "oscillating", false},
		{64, 4e-6, 0.02, "stable", false},
		{64, 85e-6, 0.03, "stable", false},
	} {
		rates := jitterRates(rng, c.n, ecndelay.DefaultDCQCNParams(c.n).C, 0.9, 1.0)
		jobs = append(jobs, dcqcnFluidJob(c.n, c.delay, c.horizon, rates, c.verdict, c.fp))
	}
	jobs = append(jobs, dcqcnPIJob(jitterRates(rng, 2, ecndelay.DefaultDCQCNParams(2).C, 0.9, 1.0)))
	for _, n := range []int{2, 10} {
		cfg := ecndelay.DefaultPatchedTimelyFluidConfig(n)
		jobs = append(jobs, timelyFluidJob(n, jitterRates(rng, n, cfg.C/float64(n), 0.8, 1.2)))
	}
	return jobs
}

// jitterRates draws n initial rates uniformly in [lo, hi) × base.
func jitterRates(rng *rand.Rand, n int, base, lo, hi float64) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = base * (lo + (hi-lo)*rng.Float64())
	}
	return r
}

// gridJob is one N × τ* cell: the DCQCN fixed point, and the phase margin
// of the DCQCN and patched-TIMELY loops (τ* as TIMELY's propagation
// delay). Fig. 3's verdicts are asserted where the paper states them.
func gridJob(n int, delay float64) job {
	return job{
		id: fmt.Sprintf("grid/n%d/d%gus", n, delay*1e6),
		run: func(m *meter) (map[string]float64, any, error) {
			p := ecndelay.DefaultDCQCNParams(n)
			p.TauStar = delay
			cfg := ecndelay.DefaultPatchedTimelyFluidConfig(n)
			cfg.DProp = delay
			c := m.beginSetup("fluid.NewDCQCNLoop")
			loop, err := ecndelay.NewDCQCNLoop(p)
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			c = m.beginSetup("fluid.NewPatchedTimelyLoop")
			tl, err := ecndelay.NewPatchedTimelyLoop(cfg)
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			c = m.begin("fixedpoint.SolveDCQCNFixedPoint")
			fp, err := ecndelay.SolveDCQCNFixedPoint(p)
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			c = m.begin("stability.PhaseMargin")
			pm, err := ecndelay.PhaseMargin(loop)
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			c = m.begin("stability.PhaseMargin")
			tpm, err := ecndelay.PhaseMargin(tl)
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			out := map[string]float64{
				"q_star": fp.Q, "p_star": fp.P, "alpha_star": fp.Alpha,
				"pm_dcqcn_deg": pm.PhaseMarginDeg, "pm_timely_deg": tpm.PhaseMarginDeg,
			}
			if !(fp.Q > 0) || !(fp.P > 0 && fp.P < 1) {
				return out, nil, fmt.Errorf("fixed point q*=%g p*=%g out of range", fp.Q, fp.P)
			}
			if delay == 85e-6 {
				switch n {
				case 2:
					if !pm.Stable {
						return out, nil, fmt.Errorf("Fig. 3: N=2 at 85µs has phase margin %.1f°, want stable", pm.PhaseMarginDeg)
					}
				case 10:
					m.model["phase_margin_deg_N10_85us"] = pm.PhaseMarginDeg
					if pm.Stable {
						return out, nil, fmt.Errorf("Fig. 3: N=10 at 85µs has phase margin %.1f°, want unstable", pm.PhaseMarginDeg)
					}
				}
			}
			return out, nil, nil
		},
	}
}

// integrate runs one fluid model through RunFluid and books its work.
func (m *meter) integrate(model ecndelay.FluidModel, flows int, horizon float64) []ecndelay.FluidSample {
	run, done := m.fluidModel(model)
	c := m.begin("fluid.RunFluid")
	sm := ecndelay.RunFluid(run, fluidStep, horizon, fluidSample)
	m.end(c)
	done()
	steps := math.Round(horizon / fluidStep)
	m.counts["ode.steps"] += steps
	m.flowSteps += steps * float64(flows)
	m.fluidSimS += horizon
	return sm
}

// fluidTail summarises state component idx over t >= from, and hashes the
// whole trajectory for the job digest.
func fluidTail(sm []ecndelay.FluidSample, idx int, from float64) (mean, sd, traj float64) {
	var xs []float64
	h := newDigest()
	for _, s := range sm {
		h.floats(s.T)
		h.floats(s.Y...)
		if s.T >= from {
			xs = append(xs, s.Y[idx])
		}
	}
	mean, sd = meanSD(xs)
	return mean, sd, h.value()
}

func dcqcnFluidJob(n int, delay, horizon float64, rates []float64, verdict string, checkFP bool) job {
	return job{
		id: fmt.Sprintf("fluid/dcqcn/n%d/d%gus", n, delay*1e6),
		run: func(m *meter) (map[string]float64, any, error) {
			p := ecndelay.DefaultDCQCNParams(n)
			p.TauStar = delay
			c := m.beginSetup("fluid.NewDCQCNFluid")
			sys, err := ecndelay.NewDCQCNFluid(ecndelay.DCQCNFluidConfig{Params: p, InitialRC: rates})
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			sm := m.integrate(sys, n, horizon)
			q, sd, traj := fluidTail(sm, sys.QIndex(), 0.6*horizon)
			cv := sd / q
			out := map[string]float64{"q_mean": q, "q_cv": cv, "traj": traj}
			m.queueKB(q) // packets of 1 KB
			switch {
			case verdict == "stable" && !(cv <= stableCV):
				return out, sm, fmt.Errorf("Fig. 4: queue CV %.3f, want stable (≤ %.2f)", cv, stableCV)
			case verdict == "oscillating" && !(cv >= oscillatingCV):
				return out, sm, fmt.Errorf("Fig. 4: queue CV %.3f, want oscillating (≥ %.2f)", cv, oscillatingCV)
			}
			if checkFP {
				c := m.begin("fixedpoint.SolveDCQCNFixedPoint")
				fp, err := ecndelay.SolveDCQCNFixedPoint(p)
				m.end(c)
				if err != nil {
					return out, sm, err
				}
				if tol := ecndelay.DefaultHybridTolerance().FluidVsFP; !(relErr(q, fp.Q) <= tol) {
					return out, sm, fmt.Errorf("Thm. 1: fluid tail queue %.2f vs q* %.2f, rel err %.3f > %.2f", q, fp.Q, relErr(q, fp.Q), tol)
				}
			}
			return out, sm, nil
		},
	}
}

// dcqcnPIJob is Fig. 18: DCQCN with PI marking pins the queue at its
// reference. The assertion is the repository's own (within 10%, standard
// deviation within 10% of the reference).
func dcqcnPIJob(rates []float64) job {
	const n, horizon = 2, 0.3
	return job{
		id: "fluid/dcqcn-pi/n2/d85us",
		run: func(m *meter) (map[string]float64, any, error) {
			p := ecndelay.DefaultDCQCNParams(n)
			p.TauStar = 85e-6
			c := m.beginSetup("fluid.NewDCQCNPIFluid")
			sys, err := ecndelay.NewDCQCNPIFluid(ecndelay.DCQCNPIConfig{
				DCQCN: ecndelay.DCQCNFluidConfig{Params: p, InitialRC: rates},
			})
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			sm := m.integrate(sys, n, horizon)
			q, sd, traj := fluidTail(sm, sys.QIndex(), 0.75*horizon)
			out := map[string]float64{"q_mean": q, "q_sd": sd, "traj": traj}
			m.queueKB(q)
			ref := sys.QRef()
			if !(relErr(q, ref) <= 0.1) || !(sd/ref <= 0.1) {
				return out, sm, fmt.Errorf("Fig. 18: PI queue %.1f±%.1f, want pinned at %.0f", q, sd, ref)
			}
			return out, sm, nil
		},
	}
}

// timelyFluidJob integrates patched TIMELY (Eq. 29-30) and checks the tail
// queue against the Eq. 31 fixed point.
func timelyFluidJob(n int, rates []float64) job {
	const horizon = 0.04
	return job{
		id: fmt.Sprintf("fluid/patched-timely/n%d", n),
		run: func(m *meter) (map[string]float64, any, error) {
			cfg := ecndelay.DefaultPatchedTimelyFluidConfig(n)
			cfg.InitialRates = rates
			c := m.beginSetup("fluid.NewPatchedTimelyFluid")
			sys, err := ecndelay.NewPatchedTimelyFluid(cfg)
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			sm := m.integrate(sys, n, horizon)
			q, sd, traj := fluidTail(sm, sys.QIndex(), 0.6*horizon)
			out := map[string]float64{"q_mean": q, "q_sd": sd, "traj": traj}
			m.queueKB(q / 1000) // bytes
			c = m.begin("fixedpoint.PatchedTimelyQStar")
			qStar := ecndelay.PatchedTimelyQStar(n, cfg.Delta, cfg.Beta, cfg.C, cfg.C*cfg.TLow)
			m.end(c)
			if tol := ecndelay.DefaultHybridTolerance().FluidVsFP; !(relErr(q, qStar) <= tol) {
				return out, sm, fmt.Errorf("Eq. 31: fluid tail queue %.0f B vs q* %.0f B, rel err %.3f > %.2f", q, qStar, relErr(q, qStar), tol)
			}
			return out, sm, nil
		},
	}
}

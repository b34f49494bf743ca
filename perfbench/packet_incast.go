package main

import (
	"fmt"
	"math/rand"

	"ecndelay"
)

// The packet-incast workload: long-lived flows into one bottleneck, where
// the DES core and the port chain do nearly all the work on a small,
// steady pending set. The hybrid layer is measured only here.

const (
	sliceDur = 100 * ecndelay.Microsecond // RunUntil slice and queue sampling period
	dcqcnBW  = 40e9 / 8                   // bytes/s, the Table 1 bottleneck
	timelyBW = 10e9 / 8                   // bytes/s, the Table 2 bottleneck
	incastN  = 10                         // Fig. 5 and Clos incast senders
)

// fpQueueTol bounds a packet tail queue's distance from the analytic q*.
var fpQueueTol = ecndelay.DefaultHybridTolerance().FixedPoint

func packetIncastJobs(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	return []job{
		fig5Job(rng.Int63()),
		timelyStarJob(rng.Int63(), ecndelay.Duration(rng.Intn(20000))),
		closIncastJob(rng.Int63(), false),
		closIncastJob(rng.Int63(), true),
		backgroundJob(rng.Int63()),
	}
}

// runNet advances nw to horizon in RunUntil slices, calling sample after
// each, and books the DES work. Between slices a traced round samples the
// pending-event count.
func (m *meter) runNet(nw *ecndelay.Network, horizon float64, sample func()) uint64 {
	end := ecndelay.Time(ecndelay.DurationFromSeconds(horizon))
	ev0 := nw.Sim.Processed()
	a0 := readUint(allocMetric)
	for t := ecndelay.Time(sliceDur); ; t += ecndelay.Time(sliceDur) {
		if t > end {
			t = end
		}
		c := m.begin("des.RunUntil")
		nw.RunUntil(t)
		m.end(c)
		if m.traced {
			if p := float64(nw.Sim.Pending()); p > m.traceCount["des.pending_peak"] {
				m.traceCount["des.pending_peak"] = p
			}
		}
		if sample != nil {
			sample()
		}
		if t == end {
			break
		}
	}
	m.desAllocB += float64(readUint(allocMetric) - a0)
	ev := nw.Sim.Processed() - ev0
	m.counts["des.events"] += float64(ev)
	m.desSimS += horizon
	return ev
}

// newNetwork creates a network, attaching the traced round's observer
// before any port or endpoint exists.
func (m *meter) newNetwork(seed int64, o *ecndelay.Observer) *ecndelay.Network {
	c := m.beginSetup("netsim.NewNetwork")
	nw := ecndelay.NewNetwork(seed)
	if o != nil {
		nw.SetObserver(o)
	}
	m.end(c)
	return nw
}

// redMarker returns the Table 1 RED profile in bytes.
func redMarker(nw *ecndelay.Network, p ecndelay.DCQCNParams) func() ecndelay.Marker {
	return func() ecndelay.Marker {
		return &ecndelay.REDMarker{
			Kmin: int(p.Kmin * ecndelay.DataMTU),
			Kmax: int(p.Kmax * ecndelay.DataMTU),
			Pmax: p.Pmax,
			Rng:  nw.Rng,
		}
	}
}

// queueSeries samples a queue occupancy after every slice.
type queueSeries struct {
	v []float64
	d digest
}

func newQueueSeries(horizon float64) *queueSeries {
	return &queueSeries{
		v: make([]float64, 0, int(horizon/sliceDur.Seconds())+1),
		d: newDigest(),
	}
}

func (q *queueSeries) add(bytes int) {
	q.v = append(q.v, float64(bytes))
	q.d.floats(float64(bytes))
}

// tail returns the mean and coefficient of variation of the samples from
// fraction frac of the run onwards, in KB.
func (q *queueSeries) tail(frac float64) (meanKB, cv float64) {
	mean, sd := meanSD(q.v[int(frac*float64(len(q.v))):])
	return mean / 1000, sd / mean
}

// dcqcnStar wires an n-sender DCQCN star at the Table 1 operating point
// with long-lived flows.
func (m *meter) dcqcnStar(seed int64, n int, extra ecndelay.Duration, o *ecndelay.Observer) (*ecndelay.Network, *ecndelay.Star, error) {
	nw := m.newNetwork(seed, o)
	p := ecndelay.DefaultDCQCNParams(n)
	c := m.beginSetup("topo.NewStar")
	star := ecndelay.NewStar(nw, ecndelay.StarConfig{
		Senders:        n,
		Link:           ecndelay.LinkConfig{Bandwidth: dcqcnBW, PropDelay: ecndelay.Microsecond},
		Mark:           redMarker(nw, p),
		CtrlExtraDelay: extra,
	})
	m.end(c)
	c = m.beginSetup("netsim.NewDCQCNEndpoint")
	defer m.end(c)
	if _, err := ecndelay.NewDCQCNEndpoint(star.Receiver, ecndelay.DefaultDCQCNProtoParams()); err != nil {
		return nil, nil, err
	}
	for i, h := range star.Senders {
		ep, err := ecndelay.NewDCQCNEndpoint(h, ecndelay.DefaultDCQCNProtoParams())
		if err != nil {
			return nil, nil, err
		}
		if _, err := ep.NewFlow(i, star.Receiver.ID(), -1, 0); err != nil {
			return nil, nil, err
		}
	}
	return nw, star, nil
}

// solveQStarKB is the Theorem 1 queue for n Table 1 flows, in KB.
func (m *meter) solveQStarKB(n int) (float64, error) {
	c := m.begin("fixedpoint.SolveDCQCNFixedPoint")
	defer m.end(c)
	fp, err := ecndelay.SolveDCQCNFixedPoint(ecndelay.DefaultDCQCNParams(n))
	return fp.Q * ecndelay.DataMTU / 1000, err
}

// fig5Job is Fig. 5: ten DCQCN flows on the 40 Gb/s star, with and without
// +85 µs of feedback delay. The delay must raise the queue's coefficient
// of variation, and the undelayed tail queue must sit within the
// fixed-point tolerance of q*. The repository's fig5 test asks for at
// least double at its one seed; over seeds the rise ranges from 1.65×
// (seed 715) to 6×, so doubling is not a property of every input.
func fig5Job(seed int64) job {
	const horizon = 0.03
	return job{
		id: "incast/fig5-star",
		run: func(m *meter) (map[string]float64, any, error) {
			out := map[string]float64{}
			var cvs [2]float64
			var series [2]*queueSeries
			var q0 float64
			for i, extra := range []ecndelay.Duration{0, 85 * ecndelay.Microsecond} {
				o := m.observer()
				nw, star, err := m.dcqcnStar(seed, incastN, extra, o)
				if err != nil {
					return nil, nil, err
				}
				qs := newQueueSeries(horizon)
				ev := m.runNet(nw, horizon, func() { qs.add(star.Bottleneck.Queue().Bytes()) })
				m.finishObserver(o)
				q, cv := qs.tail(0.5)
				key := fmt.Sprintf("extra%dus", extra/ecndelay.Microsecond)
				out["events_"+key], out["q_kb_"+key], out["q_cv_"+key], out["q_hash_"+key] = float64(ev), q, cv, qs.d.value()
				m.model["queue_cv_"+key] = cv
				m.queueKB(q)
				cvs[i], series[i] = cv, qs
				if extra == 0 {
					q0 = q
				}
			}
			if !(cvs[1] > cvs[0]) {
				return out, series, fmt.Errorf("Fig. 5: queue CV %.3f at +85µs vs %.3f at 0, want a rise", cvs[1], cvs[0])
			}
			qStar, err := m.solveQStarKB(incastN)
			if err != nil {
				return out, series, err
			}
			if !(relErr(q0, qStar) <= fpQueueTol) {
				return out, series, fmt.Errorf("Thm. 1: star tail queue %.1f KB vs q* %.1f KB", q0, qStar)
			}
			return out, series, nil
		},
	}
}

// timelyStarJob runs four patched-TIMELY flows with per-burst pacing on
// the 10 Gb/s star, starts staggered by stagger, and checks the tail queue
// against Eq. 31.
func timelyStarJob(seed int64, stagger ecndelay.Duration) job {
	const n, horizon = 4, 0.15
	return job{
		id: "incast/patched-timely-star",
		run: func(m *meter) (map[string]float64, any, error) {
			o := m.observer()
			nw := m.newNetwork(seed, o)
			c := m.beginSetup("topo.NewStar")
			star := ecndelay.NewStar(nw, ecndelay.StarConfig{
				Senders: n,
				Link:    ecndelay.LinkConfig{Bandwidth: timelyBW, PropDelay: ecndelay.Microsecond},
			})
			m.end(c)
			par := ecndelay.DefaultPatchedTimelyProtoParams()
			par.Burst = true
			c = m.beginSetup("netsim.NewTimelyEndpoint")
			if _, err := ecndelay.NewTimelyEndpoint(star.Receiver, par); err != nil {
				return nil, nil, err
			}
			for i, h := range star.Senders {
				ep, err := ecndelay.NewTimelyEndpoint(h, par)
				if err != nil {
					return nil, nil, err
				}
				if _, err := ep.NewFlow(i, star.Receiver.ID(), -1, ecndelay.Time(int64(i)*int64(stagger)), 0); err != nil {
					return nil, nil, err
				}
			}
			m.end(c)
			qs := newQueueSeries(horizon)
			ev := m.runNet(nw, horizon, func() { qs.add(star.Bottleneck.Queue().Bytes()) })
			m.finishObserver(o)
			q, cv := qs.tail(0.6)
			m.queueKB(q)
			out := map[string]float64{"events": float64(ev), "q_kb": q, "q_cv": cv, "q_hash": qs.d.value()}
			cfg := ecndelay.DefaultPatchedTimelyFluidConfig(n)
			c = m.begin("fixedpoint.PatchedTimelyQStar")
			qStar := ecndelay.PatchedTimelyQStar(n, cfg.Delta, cfg.Beta, cfg.C, cfg.C*cfg.TLow) / 1000
			m.end(c)
			if !(relErr(q, qStar) <= fpQueueTol) {
				return out, qs, fmt.Errorf("Eq. 31: star tail queue %.1f KB vs q* %.1f KB", q, qStar)
			}
			return out, qs, nil
		},
	}
}

// closIncastJob is the hybridwarm scenario built from public calls: ten
// DCQCN senders on a 2-tier leaf-spine Clos into host 0, cold or warm
// started at the Theorem 1 fixed point.
func closIncastJob(seed int64, warm bool) job {
	const horizon = 0.02
	mode := "cold"
	if warm {
		mode = "warm"
	}
	return job{
		id: "incast/clos-" + mode,
		run: func(m *meter) (map[string]float64, any, error) {
			p := ecndelay.DefaultDCQCNParams(incastN)
			o := m.observer()
			nw := m.newNetwork(seed, o)
			radix := 4
			for radix*radix/2 < incastN+1 {
				radix += 2
			}
			c := m.beginSetup("topo.NewClos")
			cl, err := ecndelay.NewClos(nw, ecndelay.ClosConfig{
				Radix:    radix,
				Tiers:    2,
				HostLink: ecndelay.LinkConfig{Bandwidth: dcqcnBW, PropDelay: ecndelay.Microsecond},
				Mark:     redMarker(nw, p),
				ECMPSeed: seed,
			})
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			c = m.beginSetup("netsim.NewDCQCNEndpoint")
			eps := make([]*ecndelay.DCQCNEndpoint, len(cl.Hosts))
			for i, h := range cl.Hosts {
				if eps[i], err = ecndelay.NewDCQCNEndpoint(h, ecndelay.DefaultDCQCNProtoParams()); err != nil {
					return nil, nil, err
				}
			}
			senders := make([]*ecndelay.DCQCNSender, incastN)
			for i := range senders {
				if senders[i], err = eps[i+1].NewFlow(i, cl.Hosts[0].ID(), -1, 0); err != nil {
					return nil, nil, err
				}
			}
			m.end(c)
			if warm {
				t0 := m.beginSetup("hybrid.SolveDCQCNWarmStart")
				ws, err := ecndelay.SolveDCQCNWarmStart(p)
				m.end(t0)
				if err != nil {
					return nil, nil, err
				}
				c = m.beginSetup("hybrid.ApplyDCQCN")
				err = ws.ApplyDCQCN(senders)
				flows := make([]ecndelay.HybridPrefillFlow, incastN)
				for i := range flows {
					flows[i] = ecndelay.HybridPrefillFlow{Flow: i, Src: cl.Hosts[i+1].ID(), Dst: cl.Hosts[0].ID()}
				}
				ws.Prefill(cl.HostPorts[0], flows)
				m.end(c)
				if err != nil {
					return nil, nil, err
				}
			}
			qs := newQueueSeries(horizon)
			ev := m.runNet(nw, horizon, func() { qs.add(cl.HostPorts[0].Queue().Bytes()) })
			m.finishObserver(o)
			m.counts["hybrid."+mode+"_events"] += float64(ev)
			q, cv := qs.tail(0.6)
			m.queueKB(q)
			out := map[string]float64{"events": float64(ev), "q_kb": q, "q_cv": cv, "q_hash": qs.d.value()}
			qStar, err := m.solveQStarKB(incastN)
			if err != nil {
				return out, qs, err
			}
			if !(relErr(q, qStar) <= fpQueueTol) {
				return out, qs, fmt.Errorf("Thm. 1: Clos %s tail queue %.1f KB vs q* %.1f KB", mode, q, qStar)
			}
			return out, qs, nil
		},
	}
}

// backgroundJob is hybridbg: two packet DCQCN flows share the star's
// bottleneck with a six-flow fluid background aggregate. The coupled
// marking view must settle near the eight-flow fixed point.
func backgroundJob(seed int64) job {
	const fg, bg, horizon = 2, 6, 0.04
	return job{
		id: "incast/fluid-background",
		run: func(m *meter) (map[string]float64, any, error) {
			o := m.observer()
			nw, star, err := m.dcqcnStar(seed, fg, 0, o)
			if err != nil {
				return nil, nil, err
			}
			c := m.beginSetup("hybrid.AttachFluidBackground")
			agg, err := ecndelay.AttachFluidBackground(star.Bottleneck, ecndelay.HybridBackgroundConfig{
				Flows: bg, Par: ecndelay.DefaultDCQCNParams(fg), ColdStart: true,
			})
			m.end(c)
			if err != nil {
				return nil, nil, err
			}
			qs := newQueueSeries(horizon)
			ev := m.runNet(nw, horizon, func() { qs.add(star.Bottleneck.Queue().MarkBytes()) })
			m.finishObserver(o)
			q, cv := qs.tail(0.6)
			m.queueKB(q)
			out := map[string]float64{"events": float64(ev), "q_kb": q, "q_cv": cv, "q_hash": qs.d.value(), "bg_rate": agg.Rate()}
			qStar, err := m.solveQStarKB(fg + bg)
			if err != nil {
				return out, qs, err
			}
			if !(relErr(q, qStar) <= fpQueueTol) {
				return out, qs, fmt.Errorf("Thm. 1: coupled tail queue %.1f KB vs %d-flow q* %.1f KB", q, fg+bg, qStar)
			}
			return out, qs, nil
		},
	}
}

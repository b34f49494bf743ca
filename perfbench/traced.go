package main

import (
	"strings"

	"ecndelay"
	"ecndelay/internal/ode"
)

// countingModel wraps a fluid model in a traced round to count what only a
// wrapper can see: right-hand-side evaluations, delayed-history lookups and
// accepted steps. Untraced rounds never use it, so any optional interface a
// model gains later stays visible to the solver there.
type countingModel struct {
	ecndelay.FluidModel
	past    ode.History
	rhs     int64
	lookups int64
	steps   int64
}

func (c *countingModel) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	c.rhs++
	c.past = past
	c.FluidModel.Derivs(t, y, c, dydt)
}

// Value counts one delayed-history lookup and forwards it.
func (c *countingModel) Value(tq float64, idx int) float64 {
	c.lookups++
	return c.past.Value(tq, idx)
}

// PostStep counts one accepted step and forwards to the model's clamping,
// if it has any.
func (c *countingModel) PostStep(t float64, y []float64) {
	c.steps++
	if ps, ok := c.FluidModel.(ode.PostStepper); ok {
		ps.PostStep(t, y)
	}
}

// obsCounters are the registry counters the traced run reports, summed
// over every port or endpoint that registered them: the suffix of the
// registry name after the component's prefix ("port.n0-n2.tx_pkts").
var obsCounters = []struct{ prefix, suffix, metric, unit string }{
	{"port.", ".tx_pkts", "netsim.tx_pkts", "count"},
	{"port.", ".marks", "netsim.marks", "count"},
	{"port.", ".pauses", "netsim.pauses", "count"},
	{"dcqcn.", ".cnp_tx", "dcqcn.cnp_tx", "count"},
	{"dcqcn.", ".cnp_rx", "dcqcn.cnp_rx", "count"},
	{"dcqcn.", ".rx_bytes", "dcqcn.rx_bytes", "B"},
	{"timely.", ".acks_tx", "timely.acks_tx", "count"},
	{"timely.", ".rx_bytes", "timely.rx_bytes", "B"},
}

// addObsCounters sums the registry's counters into the meter's traced
// counts.
func (m *meter) addObsCounters(reg *ecndelay.MetricsRegistry) {
	for _, mt := range reg.Snapshot() {
		for _, oc := range obsCounters {
			if strings.HasPrefix(mt.Name, oc.prefix) && strings.HasSuffix(mt.Name, oc.suffix) {
				m.traceCount[oc.metric] += float64(mt.Value)
			}
		}
	}
}

// observer returns the observer a traced round attaches to a network (a
// fresh metrics registry) and nil untraced, so timed rounds run detached.
func (m *meter) observer() *ecndelay.Observer {
	if !m.traced {
		return nil
	}
	return &ecndelay.Observer{Metrics: ecndelay.NewMetricsRegistry()}
}

// finishObserver folds a traced network's counters into the meter.
func (m *meter) finishObserver(o *ecndelay.Observer) {
	if o != nil {
		m.addObsCounters(o.Metrics)
	}
}

// fluidModel returns the model to integrate: m itself untraced, a
// countingModel traced. done folds the counts into the meter.
func (m *meter) fluidModel(model ecndelay.FluidModel) (run ecndelay.FluidModel, done func()) {
	if !m.traced {
		return model, func() {}
	}
	c := &countingModel{FluidModel: model}
	return c, func() {
		m.traceCount["ode.rhs_evals"] += float64(c.rhs)
		m.traceCount["ode.history_lookups"] += float64(c.lookups)
		m.traceCount["ode.steps"] += float64(c.steps)
	}
}

package main

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Layer names: the repository's modules, as the benchmark sees them from
// outside. A call's layer is the part of its span name before the first
// dot ("fluid.RunFluid" belongs to fluid). "bench" is the benchmark's own
// glue: round and job bookkeeping, oracles, queue sampling, digests.
var layers = []string{
	"fixedpoint", "stability", "fluid", "des", "netsim", "topo",
	"workload", "hybrid", "sweep", "exp", "bench",
}

// span is one timed interval: a round, a job, or a call into a layer.
// Start and End are nanoseconds since the meter's origin; Parent indexes
// the enclosing span (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// callStat accumulates the calls made to one function.
type callStat struct {
	calls int
	busy  time.Duration
	durs  []time.Duration // per call, for the layers that report percentiles
}

// meter times one round of a workload. Untraced, it keeps per-layer busy
// time, set-up time and per-call durations: two clock reads per call.
// Traced, it also records every call as a span, and the jobs attach the
// counting wrappers and metrics registry that only a traced round uses.
//
// A meter is used by one goroutine at a time: the sweep engine runs the
// jobs of a round one after another (Workers: 1), and the main goroutine
// reads the meter only once RunSweep has returned.
type meter struct {
	origin time.Time
	traced bool
	job    string

	byName map[string]*callStat
	// setupCalls holds the duration of each set-up call, in call order;
	// every round of a workload makes the same calls in the same order.
	setupCalls []time.Duration

	// Work the round did, for ratios: fluid flow-steps and simulated
	// seconds, DES simulated seconds and bytes allocated inside RunUntil.
	flowSteps  float64
	fluidSimS  float64
	desSimS    float64
	desAllocB  float64
	counts     map[string]float64 // deterministic work counts
	model      map[string]float64 // simulated results
	traceCount map[string]float64 // counts only a traced round can see
	// queueSum/queueN average the jobs' tail queues (KB) into
	// model.queue_kb_mean.
	queueSum float64
	queueN   int

	spans []span
	open  []int
}

func newMeter(origin time.Time, traced bool) *meter {
	m := &meter{
		origin: origin,
		traced: traced,
		byName: make(map[string]*callStat),
		counts: make(map[string]float64),
		model:  make(map[string]float64),
	}
	if traced {
		m.traceCount = make(map[string]float64)
	}
	return m
}

// call is an open timed interval returned by begin.
type call struct {
	name  string
	start time.Time
	span  int
	setup bool
}

// begin opens a call named "layer.Func".
func (m *meter) begin(name string) call {
	c := call{name: name, span: -1}
	if m.traced {
		c.span = m.push(name)
	}
	c.start = time.Now()
	return c
}

// beginSetup opens a set-up call (topology, endpoints, flow lists, fluid
// systems, loop models, warm starts): it counts towards its layer and
// towards the round's set-up time.
func (m *meter) beginSetup(name string) call {
	c := m.begin(name)
	c.setup = true
	return c
}

// end closes c and returns its duration.
func (m *meter) end(c call) time.Duration {
	now := time.Now()
	d := now.Sub(c.start)
	if c.span >= 0 {
		m.pop(c.span, now)
	}
	st := m.byName[c.name]
	if st == nil {
		st = &callStat{}
		m.byName[c.name] = st
	}
	st.calls++
	st.busy += d
	if strings.HasPrefix(c.name, "fixedpoint.") || strings.HasPrefix(c.name, "stability.") {
		st.durs = append(st.durs, d) // only these layers report call percentiles
	}
	if c.setup {
		m.setupCalls = append(m.setupCalls, d)
	}
	return d
}

func (m *meter) push(name string) int {
	parent := -1
	if n := len(m.open); n > 0 {
		parent = m.open[n-1]
	}
	m.spans = append(m.spans, span{
		Name: name, Job: m.job, Parent: parent,
		Start: time.Since(m.origin).Nanoseconds(),
	})
	idx := len(m.spans) - 1
	m.open = append(m.open, idx)
	return idx
}

func (m *meter) pop(idx int, now time.Time) {
	m.spans[idx].End = now.Sub(m.origin).Nanoseconds()
	// Close idx and anything a panic left open inside it.
	for n := len(m.open); n > 0; n-- {
		top := m.open[n-1]
		m.open = m.open[:n-1]
		if top == idx {
			return
		}
		m.spans[top].End = m.spans[idx].End
	}
}

// bench opens a span of the benchmark's own (round or job); untraced it
// costs nothing.
func (m *meter) bench(name, job string) int {
	m.job = job
	if !m.traced {
		return -1
	}
	return m.push(name)
}

func (m *meter) benchEnd(idx int) {
	if idx >= 0 {
		m.pop(idx, time.Now())
	}
}

// liveHeapAfterGC forces a collection and returns the live heap while
// keep — a job's result — is still referenced.
func liveHeapAfterGC(keep any) uint64 {
	runtime.GC()
	live := readUint(liveHeapMetric)
	runtime.KeepAlive(keep)
	return live
}

// setupTime sums the round's set-up calls.
func (m *meter) setupTime() time.Duration {
	var d time.Duration
	for _, c := range m.setupCalls {
		d += c
	}
	return d
}

// queueKB adds one job's tail queue to model.queue_kb_mean.
func (m *meter) queueKB(kb float64) {
	m.queueSum += kb
	m.queueN++
}

// modelValues returns the simulated results, model.queue_kb_mean included.
func (m *meter) modelValues() map[string]float64 {
	vals := make(map[string]float64, len(m.model)+1)
	for k, v := range m.model {
		vals[k] = v
	}
	if m.queueN > 0 {
		vals["queue_kb_mean"] = m.queueSum / float64(m.queueN)
	}
	return vals
}

// busy sums the time spent in calls whose name starts with prefix.
func (m *meter) busy(prefix string) time.Duration {
	var d time.Duration
	for name, st := range m.byName {
		if strings.HasPrefix(name, prefix) {
			d += st.busy
		}
	}
	return d
}

// calls counts the calls whose name starts with prefix.
func (m *meter) calls(prefix string) int {
	n := 0
	for name, st := range m.byName {
		if strings.HasPrefix(name, prefix) {
			n += st.calls
		}
	}
	return n
}

// callPercentile is the p-th percentile duration, in seconds, of the calls
// whose name starts with prefix.
func (m *meter) callPercentile(prefix string, p float64) float64 {
	var xs []float64
	for name, st := range m.byName {
		if strings.HasPrefix(name, prefix) {
			for _, d := range st.durs {
				xs = append(xs, d.Seconds())
			}
		}
	}
	return percentile(xs, p)
}

// selfTimes returns each layer's self time over the spans: a span's
// duration minus the part its direct children cover, summed by layer.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.layer()] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

const (
	allocMetric    = "/gc/heap/allocs:bytes"
	liveHeapMetric = "/gc/heap/live:bytes"
)

// readUint reads one cumulative or gauge runtime metric without stopping
// the world.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// percentile is the linearly interpolated p-th percentile of xs (sorted in
// place); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := p / 100 * float64(len(xs)-1)
	lo := int(r)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (r-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// tailLadder lists the tail percentiles the benchmark may report, highest
// first, in tenths of a percent so ranks are exact integer arithmetic.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest percentile on the ladder that leaves at
// least ten of n samples beyond its nearest-rank value, and that value's
// 1-based rank. ok is false when even the median leaves fewer than ten.
func tailPercentile(n int) (pct float64, rank int, ok bool) {
	for _, pm := range tailLadder {
		rank := nearestRank(n, pm)
		if n-rank >= 10 {
			return float64(pm) / 10, rank, true
		}
	}
	return 0, 0, false
}

// nearestRank is the 1-based rank of the percentile pm (in tenths of a
// percent) of n samples: ceil(pm·n/1000), at least 1.
func nearestRank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

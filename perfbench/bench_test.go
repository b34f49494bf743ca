package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ecndelay"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		p, rank, ok := tailPercentile(n)
		if !ok {
			if n >= 20 {
				t.Fatalf("n=%d: no tail percentile, want at least the median", n)
			}
			continue
		}
		if rank < 1 || rank > n {
			t.Fatalf("n=%d: rank %d out of [1,%d]", n, rank, n)
		}
		if n-rank < 10 {
			t.Fatalf("n=%d: p%.1f leaves %d samples beyond it, want >= 10", n, p, n-rank)
		}
		// No higher ladder percentile would have qualified.
		for _, pm := range tailLadder {
			if float64(pm)/10 <= p {
				break
			}
			if n-nearestRank(n, pm) >= 10 {
				t.Fatalf("n=%d: chose p%.1f but p%.1f also leaves ten beyond", n, p, float64(pm)/10)
			}
		}
	}
	if p, _, _ := tailPercentile(1000); p != 99 {
		t.Errorf("n=1000: tail p%.1f, want p99 (10 beyond)", p)
	}
	if p, _, _ := tailPercentile(999); p != 95 {
		t.Errorf("n=999: tail p%.1f, want p95 (p99 leaves 9 beyond)", p)
	}
}

func TestFCTSummaryTail(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i+1) * 1e-6 // 1..120 µs, reversed
	}
	p50, tail, pct := fctSummary(xs)
	if math.Abs(p50-60) > 1e-9 || pct != 90 || math.Abs(tail-108) > 1e-9 {
		t.Errorf("got p50=%v tail=%v at p%v, want 60, 108 at p90", p50, tail, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x*1e6 > tail {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("%d samples beyond the reported tail, want >= 10", beyond)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "bench.round", Start: 0, End: 100, Parent: -1},
		{Name: "fluid.RunFluid", Start: 10, End: 40, Parent: 0},
		{Name: "des.RunUntil", Start: 50, End: 90, Parent: 0},
		{Name: "netsim.NewFlow", Start: 60, End: 70, Parent: 2},
		{Name: "des.RunUntil", Start: 92, End: 95, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 27, "fluid": 30, "des": 33, "netsim": 10}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s self time %d, want %d", l, got[l], d)
		}
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestMeterSpansNest(t *testing.T) {
	m := newMeter(time.Now(), true)
	root := m.bench("bench.round", "")
	job := m.bench("bench.job", "j1")
	c := m.begin("fluid.RunFluid")
	m.end(c)
	s := m.beginSetup("topo.NewStar")
	m.end(s)
	m.benchEnd(job)
	m.benchEnd(root)
	if len(m.spans) != 4 || len(m.open) != 0 {
		t.Fatalf("%d spans, %d open; want 4 and 0", len(m.spans), len(m.open))
	}
	for i, p := range []int{-1, 0, 1, 1} {
		if m.spans[i].Parent != p {
			t.Errorf("span %d (%s) parent %d, want %d", i, m.spans[i].Name, m.spans[i].Parent, p)
		}
	}
	if m.spans[2].Job != "j1" || m.spans[2].End < m.spans[2].Start {
		t.Errorf("layer span %+v, want job j1 and end >= start", m.spans[2])
	}
	if m.calls("fluid.") != 1 || len(m.setupCalls) != 1 || m.setupTime() != m.busy("topo.") {
		t.Errorf("calls %d, set-up calls %v vs topo busy %v", m.calls("fluid."), m.setupCalls, m.busy("topo."))
	}
}

// testJobs is a tiny synthetic workload: one passing job, one that misses
// an oracle, one that panics, and one whose output changes every round.
func testJobs() []job {
	rounds := 0
	return []job{
		{id: "ok", run: func(m *meter) (map[string]float64, any, error) {
			c := m.begin("fixedpoint.SolveDCQCNFixedPoint")
			fp, err := ecndelay.SolveDCQCNFixedPoint(ecndelay.DefaultDCQCNParams(2))
			m.end(c)
			return map[string]float64{"q": fp.Q}, nil, err
		}},
		{id: "miss", run: func(m *meter) (map[string]float64, any, error) {
			return map[string]float64{"cv": 0.01}, nil, errors.New("Fig. 4: queue CV 0.010, want oscillating")
		}},
		{id: "panic", run: func(m *meter) (map[string]float64, any, error) {
			var xs []float64
			return map[string]float64{"x": xs[3]}, nil, nil
		}},
		{id: "drift", run: func(m *meter) (map[string]float64, any, error) {
			rounds++
			return map[string]float64{"r": float64(rounds)}, nil, nil
		}},
	}
}

func TestOracleMissCountsAsFailedOperation(t *testing.T) {
	b := newBench(testJobs())
	b.round(probe)
	if b.attempted != 4 || b.failed != 2 {
		t.Fatalf("round 1: attempted %d failed %d, want 4 and 2 (oracle miss, panic)", b.attempted, b.failed)
	}
	b.round(timed)
	if b.attempted != 8 || b.failed != 5 {
		t.Fatalf("round 2: attempted %d failed %d, want 8 and 5 (plus the drifting digest)", b.attempted, b.failed)
	}
	joined := strings.Join(b.failures, "\n")
	for _, want := range []string{"job miss: Fig. 4", "job panic:", "job drift: output digest"} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures %q lack %q", joined, want)
		}
	}
	if len(b.failures) != 3 {
		t.Errorf("%d distinct failures, want 3 (repeats deduplicated)", len(b.failures))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchBenchmarkJSON checks every reported metric name and
// unit against the allowed alphabet, and that the untraced and traced
// metric sets are exactly BENCHMARK.json's end_to_end and per_layer lists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	jobs := testJobs()[:1]
	b := newBench(jobs)
	for _, k := range []roundKind{probe, timed, traced} {
		b.round(k)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  metricSet
		want []struct{ Name, Unit string }
	}{{"end_to_end", b.endToEnd(), spec.EndToEnd}, {"per_layer", b.layerMetrics(), spec.PerLayer}} {
		var names []string
		for name, m := range c.got {
			names = append(names, name)
			if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: metric %q unit %q outside the allowed alphabet", c.kind, name, m.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %q is %v", c.kind, name, m.Value)
			}
		}
		sort.Strings(names)
		var want []string
		for _, w := range c.want {
			want = append(want, w.Name)
			if got, ok := c.got[w.Name]; ok && got.Unit != w.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", c.kind, w.Name, got.Unit, w.Unit)
			}
		}
		sort.Strings(want)
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("%s: reported\n%v\nBENCHMARK.json lists\n%v", c.kind, names, want)
		}
	}
}

// TestCountingModelIsTransparent checks that the traced wrapper leaves a
// fluid trajectory bit-identical and counts four RHS evaluations per RK4
// step.
func TestCountingModelIsTransparent(t *testing.T) {
	p := ecndelay.DefaultDCQCNParams(2)
	build := func() ecndelay.FluidModel {
		sys, err := ecndelay.NewDCQCNFluid(ecndelay.DCQCNFluidConfig{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	const horizon = 2e-3
	plain := ecndelay.RunFluid(build(), fluidStep, horizon, fluidSample)
	m := newMeter(time.Now(), true)
	wrapped := m.integrate(build(), 2, horizon)
	if len(plain) != len(wrapped) {
		t.Fatalf("%d vs %d samples", len(plain), len(wrapped))
	}
	for i := range plain {
		for k := range plain[i].Y {
			if math.Float64bits(plain[i].Y[k]) != math.Float64bits(wrapped[i].Y[k]) {
				t.Fatalf("sample %d component %d differs: %v vs %v", i, k, plain[i].Y[k], wrapped[i].Y[k])
			}
		}
	}
	steps := m.traceCount["ode.steps"]
	if steps != m.counts["ode.steps"] || steps != math.Round(horizon/fluidStep) || m.traceCount["ode.rhs_evals"] != 4*steps {
		t.Errorf("steps %v (computed %v) rhs %v, want %v and 4× that",
			steps, m.counts["ode.steps"], m.traceCount["ode.rhs_evals"], math.Round(horizon/fluidStep))
	}
	if m.traceCount["ode.history_lookups"] == 0 {
		t.Error("no delayed-history lookups counted")
	}
}

func TestPickSeedBoundsVolume(t *testing.T) {
	cfg := fatTreeWorkload()
	for seed := int64(1); seed <= 3; seed++ {
		s := pickSeed(rand.New(rand.NewSource(seed)), cfg, 0)
		cfg.Seed = s
		flows, err := ecndelay.GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var bytes float64
		for _, f := range flows {
			bytes += float64(f.Size)
		}
		if d := bytes/(cfg.Load*cfg.Horizon) - 1; math.Abs(d) > volumeTol {
			t.Errorf("seed %d: offered bytes %.3g off nominal by %.3f", seed, bytes, d)
		}
	}
}

// TestRoundSchedule checks the order of round kinds, that wall_s sums each
// job's fastest repeat and the fastest time outside the jobs, setup_s
// each set-up call's fastest repeat, and live_heap_mb comes from the
// probe rounds alone.
func TestRoundSchedule(t *testing.T) {
	b := newBench(testJobs()[:1])
	var kinds []roundKind
	for !b.enough(true) {
		k := b.next(true)
		kinds = append(kinds, k)
		b.round(k)
	}
	if want := []roundKind{probe, timed, traced}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("traced run rounds %v, want %v", kinds, want)
	}
	if k := b.next(false); k != timed {
		t.Errorf("untraced run after the probe: %v, want timed", k)
	}
	u := b.rounds[timed]
	for len(u) < 3 {
		u = append(u, b.round(timed))
	}
	// ms: per-job times (fastest 1 and 1) and the time outside the jobs
	// (2, 2, 1), so the fastest round takes 5 ms but wall_s is 3 ms.
	jobs := [][]time.Duration{{2, 1}, {1, 3}, {3, 2}}
	walls := []time.Duration{5, 6, 6}
	setups := [][]time.Duration{{1, 5}, {3, 2}, {2, 4}} // sums 6, 5, 6
	for i, r := range u {
		r.wall, r.jobWalls, r.jobWall = walls[i], jobs[i], 0
		for j := range r.jobWalls {
			r.jobWalls[j] *= time.Millisecond
			r.jobWall += r.jobWalls[j]
		}
		r.wall *= time.Millisecond
		r.m.setupCalls = setups[i]
		for j := range r.m.setupCalls {
			r.m.setupCalls[j] *= time.Millisecond
		}
	}
	b.rounds[probe][0].liveHeap = 5e6
	e := b.endToEnd()
	if math.Abs(e["wall_s"].Value-3e-3) > 1e-12 || e["setup_s"].Value != 3e-3 || e["live_heap_mb"].Value != 5 {
		t.Errorf("wall_s %v setup_s %v live_heap_mb %v, want 0.003, 0.003, 5", e["wall_s"].Value, e["setup_s"].Value, e["live_heap_mb"].Value)
	}
}

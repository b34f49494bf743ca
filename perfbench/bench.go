package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecndelay"
)

// roundKind is what one round of a workload measures.
type roundKind int

const (
	// timed rounds give wall_s, setup_s, alloc_mb and the layer timings:
	// no wrapper, no observer, no forced collection, so the program runs
	// with its own GC pacing.
	timed roundKind = iota
	// probe rounds give live_heap_mb: a forced collection after every
	// job, with the job's result still referenced.
	probe
	// traced rounds record spans and the counts only wrappers see.
	traced
)

// roundResult is one execution of every job of a workload.
type roundResult struct {
	m        *meter
	wall     time.Duration   // the whole round
	sweep    time.Duration   // inside RunSweep
	jobWall  time.Duration   // inside the jobs, summed
	jobWalls []time.Duration // inside each job, by job index
	cpu      time.Duration   // process CPU time over the round
	alloc    uint64          // bytes allocated during the round
	liveHeap uint64          // probe rounds: the largest live heap after a job
	results  []ecndelay.SweepResult
}

// bench runs rounds of one workload and checks them against each other:
// every round repeats the same inputs, so every job's output digest must
// repeat exactly, whatever the round measures.
type bench struct {
	jobs   []job
	origin time.Time
	rounds map[roundKind][]*roundResult

	digests   []string // per job, from the first round
	attempted int
	failed    int
	failures  []string
	seen      map[string]bool
}

func newBench(jobs []job) *bench {
	return &bench{jobs: jobs, origin: time.Now(), rounds: make(map[roundKind][]*roundResult), seen: make(map[string]bool)}
}

// next picks the kind of the next round. The first round probes the heap,
// and so also warms the process up outside the timed rounds; after it a
// traced run alternates timed and traced rounds, an untraced run times
// every round.
func (b *bench) next(tracing bool) roundKind {
	switch {
	case len(b.rounds[probe]) == 0:
		return probe
	case tracing && len(b.rounds[timed]) > len(b.rounds[traced]):
		return traced
	}
	return timed
}

// enough reports whether the rounds so far can be reported: a probe round
// and minRounds timed ones, or in a traced run one of each kind.
func (b *bench) enough(tracing bool) bool {
	if len(b.rounds[probe]) == 0 {
		return false
	}
	if tracing {
		return len(b.rounds[timed]) >= 1 && len(b.rounds[traced]) >= 1
	}
	return len(b.rounds[timed]) >= minRounds
}

func (b *bench) round(kind roundKind) *roundResult {
	m := newMeter(b.origin, kind == traced)
	r := &roundResult{m: m, jobWalls: make([]time.Duration, len(b.jobs))}
	sj := make([]ecndelay.SweepJob, len(b.jobs))
	for i, j := range b.jobs {
		i, j := i, j
		sj[i] = ecndelay.SweepJob{ID: j.id, Run: func(int64) (map[string]float64, error) {
			t0 := time.Now()
			idx := m.bench("bench.job", j.id)
			defer func() {
				m.benchEnd(idx)
				m.job = ""
				d := time.Since(t0)
				r.jobWall += d
				r.jobWalls[i] = d
			}()
			out, keep, err := j.run(m)
			if kind == probe {
				r.liveHeap = max(r.liveHeap, liveHeapAfterGC(keep))
			}
			return out, err
		}}
	}
	a0 := readUint(allocMetric)
	cpu0 := processCPU()
	t0 := time.Now()
	root := m.bench("bench.round", "")
	c := m.begin("sweep.RunSweep")
	// One job at a time: the benchmark measures the layers, not the
	// scheduler of a small host.
	_, err := ecndelay.RunSweep(ecndelay.SweepConfig{Workers: 1}, sj, ecndelay.SweepSinkFunc(func(res ecndelay.SweepResult) error {
		r.results = append(r.results, res)
		return nil
	}))
	r.sweep = m.end(c)
	m.benchEnd(root)
	r.wall = time.Since(t0)
	r.cpu = processCPU() - cpu0
	r.alloc = readUint(allocMetric) - a0
	if err != nil {
		b.fail(fmt.Sprintf("sweep: %v", err))
	}
	b.check(r)
	r.results = nil // checked; the live heap should not grow with rounds
	b.rounds[kind] = append(b.rounds[kind], r)
	return r
}

// timedSeries lists, in run order, the wall, process CPU and set-up
// seconds of every timed round. CPU time well under wall time means the
// host took the CPU away during the round.
func (b *bench) timedSeries() (walls, cpus, setups []float64) {
	for _, r := range b.rounds[timed] {
		walls = append(walls, math.Round(r.wall.Seconds()*1e4)/1e4)
		cpus = append(cpus, math.Round(r.cpu.Seconds()*1e4)/1e4)
		setups = append(setups, math.Round(r.m.setupTime().Seconds()*1e7)/1e7)
	}
	return walls, cpus, setups
}

func (b *bench) fail(msg string) {
	if !b.seen[msg] {
		b.seen[msg] = true
		b.failures = append(b.failures, msg)
	}
}

// check counts the round's operations and fails any whose job errored or
// whose output digest differs from the first round's.
func (b *bench) check(r *roundResult) {
	first := b.digests == nil
	if first {
		b.digests = make([]string, len(b.jobs))
	}
	done := make([]bool, len(b.jobs))
	for _, res := range r.results {
		b.attempted++
		done[res.Index] = true
		d := outputDigest(res.Metrics)
		switch {
		case res.Err != "":
			b.failed++
			b.fail(fmt.Sprintf("job %s: %s", res.JobID, res.Err))
		case first:
			b.digests[res.Index] = d
		case d != b.digests[res.Index]:
			b.failed++
			b.fail(fmt.Sprintf("job %s: output digest %s differs from the first round's %s", res.JobID, d, b.digests[res.Index]))
		}
	}
	for i, ok := range done {
		if !ok {
			b.attempted++
			b.failed++
			b.fail(fmt.Sprintf("job %s: never ran", b.jobs[i].id))
		}
	}
	if r.m.traced {
		if tc := r.m.traceCount["ode.steps"]; tc != r.m.counts["ode.steps"] {
			b.failed++
			b.fail(fmt.Sprintf("traced wrapper counted %v ODE steps, the inputs give %v", tc, r.m.counts["ode.steps"]))
		}
		if t := b.rounds[traced]; len(t) > 0 && !equalCounts(t[0].m.traceCount, r.m.traceCount) {
			b.failed++
			b.fail("traced counts differ between traced rounds")
		}
	}
}

func equalCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// exactLines lists the values that must repeat exactly across runs at one
// seed: the deterministic work counts and the simulated results, and in a
// traced run the counts only the wrappers see.
func (b *bench) exactLines() []string {
	m := b.rounds[probe][0].m
	var lines []string
	add := func(kind string, vals map[string]float64) {
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			lines = append(lines, fmt.Sprintf("# %s %s %s", kind, k, strconv.FormatFloat(vals[k], 'g', -1, 64)))
		}
	}
	add("count", m.counts)
	add("model", m.modelValues())
	if t := b.rounds[traced]; len(t) > 0 {
		add("count", t[0].m.traceCount)
	}
	return lines
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a metric; a non-finite value (a ratio over no work) reads 0.
func (s metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s[name] = metric{Value: v, Unit: unit}
}

// medianOf is the median over rounds of f.
func medianOf(rounds []*roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// fastestWall is a round's wall time assembled from its fastest parts:
// each job's fastest time across rounds, plus the fastest remainder of a
// round outside its jobs (the sweep engine's own work). Contention only
// adds time, and a job lasts from microseconds to about a second, so each
// job is far likelier than a whole round to have one repeat that no
// contention touched.
func fastestWall(rounds []*roundResult) float64 {
	var best []time.Duration
	rest := time.Duration(math.MaxInt64)
	for _, r := range rounds {
		for i, d := range r.jobWalls {
			if i == len(best) {
				best = append(best, d)
			}
			best[i] = min(best[i], d)
		}
		rest = min(rest, r.wall-r.jobWall)
	}
	sum := rest
	for _, d := range best {
		sum += d
	}
	return sum.Seconds()
}

// fastestSetup sums, over the set-up calls of a round, each call's
// fastest time across rounds. A set-up call lasts microseconds, so a
// collection, a cache refill or a descheduling that lands in one call can
// multiply it; the fastest of its repeats is what the call itself costs.
func fastestSetup(rounds []*roundResult) float64 {
	var best []time.Duration
	for _, r := range rounds {
		for i, d := range r.m.setupCalls {
			if i == len(best) {
				best = append(best, d)
			}
			best[i] = min(best[i], d)
		}
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum.Seconds()
}

// endToEnd reports the timed rounds' times and allocation and the probe
// rounds' live heap. wall_s is a round assembled from the fastest repeat
// of each job: on a shared host, contention only ever adds time, and in
// runs of identical work that sum moved far less with the host's load
// than the fastest or the median round did (README.md, "Noise on small
// hosts").
func (b *bench) endToEnd() metricSet {
	s := metricSet{}
	u := b.rounds[timed]
	s.set("wall_s", "s", fastestWall(u))
	s.set("setup_s", "s", fastestSetup(u))
	s.set("alloc_mb", "MB", medianOf(u, func(r *roundResult) float64 { return float64(r.alloc) / 1e6 }))
	s.set("live_heap_mb", "MB", medianOf(b.rounds[probe], func(r *roundResult) float64 { return float64(r.liveHeap) / 1e6 }))
	return s
}

// layerMetrics reports per-layer work and time: timings from the timed
// rounds, self time and the counts only a wrapper sees from the traced
// ones, and the difference between the two as the tracing overhead.
func (b *bench) layerMetrics() metricSet {
	s := metricSet{}
	u, t := b.rounds[timed], b.rounds[traced]
	um := func(f func(m *meter) float64) float64 {
		return medianOf(u, func(r *roundResult) float64 { return f(r.m) })
	}
	busy := func(prefix string) func(m *meter) float64 {
		return func(m *meter) float64 { return m.busy(prefix).Seconds() }
	}
	calls := func(prefix string) func(m *meter) float64 {
		return func(m *meter) float64 { return float64(m.calls(prefix)) }
	}
	first := u[0].m

	// fluid + ode
	runFluid := um(busy("fluid.RunFluid"))
	s.set("fluid.calls", "count", um(calls("fluid.RunFluid")))
	s.set("fluid.busy_s", "s", um(busy("fluid.")))
	s.set("fluid.ns_per_flow_step", "ns", runFluid*1e9/first.flowSteps)
	s.set("fluid.sim_s_per_s", "s/s", first.fluidSimS/runFluid)
	// des
	des := um(busy("des."))
	events := first.counts["des.events"]
	s.set("des.events", "count", events)
	s.set("des.busy_s", "s", des)
	s.set("des.ns_per_event", "ns", des*1e9/events)
	s.set("des.sim_s_per_s", "s/s", first.desSimS/des)
	s.set("netsim.alloc_b_per_event", "B", um(func(m *meter) float64 { return m.desAllocB })/events)
	s.set("netsim.setup_ms", "ms", um(busy("netsim."))*1e3)
	// fixed points and phase margins
	for _, l := range []struct{ layer, unit string }{{"fixedpoint", "us"}, {"stability", "ms"}} {
		scale := 1e6
		if l.unit == "ms" {
			scale = 1e3
		}
		s.set(l.layer+".calls", "count", um(calls(l.layer+".")))
		s.set(l.layer+".busy_s", "s", um(busy(l.layer+".")))
		s.set(fmt.Sprintf("%s.call_%s_p50", l.layer, l.unit), l.unit, um(func(m *meter) float64 { return m.callPercentile(l.layer+".", 50) })*scale)
		s.set(fmt.Sprintf("%s.call_%s_p90", l.layer, l.unit), l.unit, um(func(m *meter) float64 { return m.callPercentile(l.layer+".", 90) })*scale)
	}
	// sweep, set-up layers, exp
	s.set("sweep.jobs", "count", float64(len(b.jobs)))
	s.set("sweep.overhead_ms", "ms", medianOf(u, func(r *roundResult) float64 { return (r.sweep - r.jobWall).Seconds() * 1e3 }))
	s.set("topo.build_ms", "ms", um(busy("topo."))*1e3)
	s.set("workload.flows", "count", first.counts["workload.flows"])
	s.set("workload.gen_ms", "ms", um(busy("workload."))*1e3)
	s.set("hybrid.warmstart_us", "us", um(func(m *meter) float64 {
		return (m.busy("hybrid.SolveDCQCNWarmStart") + m.busy("hybrid.ApplyDCQCN")).Seconds()
	})*1e6)
	s.set("hybrid.cold_events", "count", first.counts["hybrid.cold_events"])
	s.set("hybrid.warm_events", "count", first.counts["hybrid.warm_events"])
	s.set("exp.fct_calls", "count", um(calls("exp.RunFCT")))
	s.set("exp.fct_busy_s", "s", um(busy("exp.RunFCT")))
	// simulated results: identical in every round (the digests say so)
	mv := first.modelValues()
	for _, mm := range modelMetrics {
		s.set("model."+mm.name, mm.unit, mv[mm.name])
	}

	// traced rounds
	tm := func(f func(r *roundResult) float64) float64 { return medianOf(t, f) }
	tc := t[0].m.traceCount
	for _, k := range []string{"ode.steps", "ode.rhs_evals", "ode.history_lookups", "des.pending_peak"} {
		s.set(k, "count", tc[k])
	}
	for _, oc := range obsCounters {
		s.set(oc.metric, oc.unit, tc[oc.metric])
	}
	wall := func(r *roundResult) float64 { return r.wall.Seconds() }
	tracedWall, untracedWall := fastestWall(t), fastestWall(u)
	for _, l := range layers {
		self := func(r *roundResult) float64 { return selfTimes(r.m.spans)[l].Seconds() }
		s.set(l+".self_s", "s", tm(self))
		s.set(l+".self_share", "ratio", tm(func(r *roundResult) float64 { return self(r) / wall(r) }))
	}
	s.set("trace.wall_s", "s", tracedWall)
	s.set("trace.untraced_wall_s", "s", untracedWall)
	s.set("trace.overhead_s", "s", tracedWall-untracedWall)
	s.set("trace.spans", "count", float64(len(t[0].m.spans)))
	return s
}

// modelMetrics are the simulated results every traced run reports; a
// workload that does not produce one reports 0.
var modelMetrics = []struct{ name, unit string }{
	{"queue_cv_extra0us", "ratio"},
	{"queue_cv_extra85us", "ratio"},
	{"queue_kb_mean", "KB"},
	{"phase_margin_deg_N10_85us", "deg"},
	{"flows_completed", "count"},
	{"fct_small_p50_us", "us"},
	{"fct_small_tail_us", "us"},
	{"fct_small_tail_pct", "%"},
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the host's CPU model name, "unknown" if unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the measured source: the VCS revision stamped into the
// build when there is one, else a hash of the Go sources and module files
// under the working directory (a checkout need not be a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, st := range bi.Settings {
			switch {
			case st.Key == "vcs.revision":
				rev = st.Value
			case st.Key == "vcs.modified" && st.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		io.Copy(h, f)
		f.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil)[:10])
}

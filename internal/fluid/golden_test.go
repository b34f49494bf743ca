package fluid_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
)

var update = flag.Bool("update", false, "rewrite the golden trajectory digests")

// The trajectory goldens pin the exact bits of the DCQCN fluid models, the
// loop reductions and the hybrid background aggregate: every sample of
// every state component feeds a 64-bit FNV digest. They guard refactors of
// the Eq. 12 event-rate math and of the delayed-history lookups, which must
// not move a single bit. A changed digest is a regression to fix, not a
// file to regenerate; -update exists for deliberate model changes only:
//
//	go test ./internal/fluid -run TestTrajectoryGolden -update

// digest accumulates float64 bit patterns.
type digest struct {
	h hash.Hash64
	n int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
		d.n++
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// jitteredRC draws n initial rates uniformly in [0.9, 1.0) × line rate, as
// the benchmark's fluid runs start.
func jitteredRC(seed int64, n int, c float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	r := make([]float64, n)
	for i := range r {
		r[i] = c * (0.9 + 0.1*rng.Float64())
	}
	return r
}

// runDigest integrates m for horizon seconds at a 1 µs step, digesting
// every step's state.
func runDigest(t *testing.T, m fluid.Model, horizon float64) string {
	t.Helper()
	const h = 1e-6
	d := newDigest()
	samples := fluid.Run(m, h, horizon, h)
	for _, s := range samples {
		d.add(s.T)
		d.add(s.Y...)
	}
	last := samples[len(samples)-1]
	return fmt.Sprintf("samples %d dim %d\ndigest %s\nfinal_q %.17g\n", len(samples), len(last.Y), d.sum(), last.Y[0])
}

func dcqcnCase(t *testing.T, cfg fluid.DCQCNConfig, horizon float64) string {
	t.Helper()
	sys, err := fluid.NewDCQCN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runDigest(t, sys, horizon)
}

// loopGrid evaluates a loop reduction's Derivs on a grid of delayed queue
// and rate values spanning every Eq. 12 regime: unmarked (p = 0), the RED
// ramp, the extended ramp past Kmax, saturation at p = 1, and delayed rates
// below the protocol floor.
func loopGrid(t *testing.T, derivs func(z []float64, zd [][]float64, qd []float64, dzdt []float64), c float64, n int) string {
	t.Helper()
	d := newDigest()
	fair := c / float64(n)
	z := []float64{0.3, 1.1 * fair, 0.9 * fair}
	dz := make([]float64, 3)
	for _, q := range []float64{0, 5, 5.5, 50, 150, 200, 400, 1e4} {
		for _, rc := range []float64{1000, 0.5 * fair, fair, c} {
			zd := [][]float64{{0.3, fair, rc}, {0.3, fair, rc}}
			derivs(z, zd, []float64{q, q * 1.25}, dz)
			d.add(q, rc)
			d.add(dz...)
		}
	}
	return fmt.Sprintf("points %d\ndigest %s\n", d.n, d.sum())
}

// backgroundTrace runs two packet DCQCN flows plus a cold-started fluid
// aggregate of six and digests the aggregate's state every coupling tick.
func backgroundTrace(t *testing.T) string {
	t.Helper()
	sc := hybrid.NewDCQCNScenario(2, 1)
	nw, star, _, err := sc.Star(nil)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := hybrid.AttachBackground(star.Bottleneck, hybrid.BackgroundConfig{Flows: 6, Par: sc.Par, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	nw.Sim.Every(des.Time(10*des.Microsecond), 10*des.Microsecond, func() {
		d.add(float64(bg.QueueBytes()), bg.Alpha(), bg.Rate(), float64(star.Bottleneck.Queue().MarkBytes()))
	})
	nw.RunUntil(des.Time(des.DurationFromSeconds(0.01)))
	return fmt.Sprintf("points %d\ndigest %s\nfinal_queue_bytes %d\n", d.n, d.sum(), bg.QueueBytes())
}

func TestTrajectoryGolden(t *testing.T) {
	params := fluid.DefaultDCQCNParams
	cases := map[string]func(t *testing.T) string{
		"dcqcn_n2": func(t *testing.T) string {
			return dcqcnCase(t, fluid.DCQCNConfig{Params: params(2), InitialRC: jitteredRC(1, 2, params(2).C)}, 0.02)
		},
		"dcqcn_n10_85us": func(t *testing.T) string {
			p := params(10)
			p.TauStar = 85e-6
			return dcqcnCase(t, fluid.DCQCNConfig{Params: p, InitialRC: jitteredRC(2, 10, p.C)}, 0.01)
		},
		"dcqcn_n64": func(t *testing.T) string {
			return dcqcnCase(t, fluid.DCQCNConfig{Params: params(64), InitialRC: jitteredRC(3, 64, params(64).C)}, 0.003)
		},
		"dcqcn_strictred": func(t *testing.T) string {
			return dcqcnCase(t, fluid.DCQCNConfig{Params: params(10), InitialRC: jitteredRC(4, 10, params(10).C), StrictRED: true}, 0.01)
		},
		"dcqcn_ingress": func(t *testing.T) string {
			return dcqcnCase(t, fluid.DCQCNConfig{Params: params(4), InitialRC: jitteredRC(5, 4, params(4).C), IngressMarking: true}, 0.01)
		},
		"dcqcn_jitter": func(t *testing.T) string {
			return dcqcnCase(t, fluid.DCQCNConfig{Params: params(4), InitialRC: jitteredRC(6, 4, params(4).C), JitterMax: 20e-6, Seed: 3}, 0.01)
		},
		// Flows start well under capacity, one below the rate floor, so
		// the queue stays empty at first: the p → 0 limits and the floor
		// clamp on delayed rates both run.
		"dcqcn_empty_queue": func(t *testing.T) string {
			p := params(4)
			rc := []float64{0.2 * p.C / 4, 0.1 * p.C / 4, 0.05 * p.C / 4, 1000}
			return dcqcnCase(t, fluid.DCQCNConfig{Params: p, InitialRC: rc}, 0.01)
		},
		"dcqcn_pi": func(t *testing.T) string {
			sys, err := fluid.NewDCQCNPI(fluid.DCQCNPIConfig{DCQCN: fluid.DCQCNConfig{Params: params(4), InitialRC: jitteredRC(7, 4, params(4).C)}})
			if err != nil {
				t.Fatal(err)
			}
			return runDigest(t, sys, 0.01)
		},
		"loop_dcqcn": func(t *testing.T) string {
			p := params(10)
			p.TauStar = 85e-6
			l, err := fluid.NewDCQCNLoop(p)
			if err != nil {
				t.Fatal(err)
			}
			return loopGrid(t, l.Derivs, p.C, p.N)
		},
		"loop_dcqcn_ingress": func(t *testing.T) string {
			p := params(10)
			p.TauStar = 85e-6
			l, err := fluid.NewDCQCNIngressLoop(p)
			if err != nil {
				t.Fatal(err)
			}
			return loopGrid(t, l.Derivs, p.C, p.N)
		},
		"hybrid_background": backgroundTrace,
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			got := run(t)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			if got != string(want) {
				t.Errorf("%s: trajectory moved\ngot:\n%swant:\n%s", name, got, want)
			}
		})
	}
}

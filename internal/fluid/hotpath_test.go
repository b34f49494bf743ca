package fluid

import (
	"math/rand"
	"testing"

	"ecndelay/internal/ode"
)

// constHistory serves every delayed lookup from one fixed state. Tests
// hold it as an ode.History, so the call under test boxes nothing.
type constHistory []float64

func (c constHistory) Value(_ float64, idx int) float64 { return c[idx] }

// The DCQCN right-hand sides run millions of times per fluid run: the
// Eq. 12 kernel and the per-flow state must stay on the stack.
func TestDCQCNDerivsAllocFree(t *testing.T) {
	p := DefaultDCQCNParams(8)
	for _, cfg := range []DCQCNConfig{{Params: p}, {Params: p, IngressMarking: true}} {
		sys, err := NewDCQCN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		y := sys.Initial()
		y[0] = 150 // on the RED ramp, so the marked branch runs
		var past ode.History = constHistory(append([]float64(nil), y...))
		dydt := make([]float64, len(y))
		if n := testing.AllocsPerRun(100, func() { sys.Derivs(1e-3, y, past, dydt) }); n != 0 {
			t.Errorf("IngressMarking=%v: Derivs allocates %v times per call", cfg.IngressMarking, n)
		}
	}

	pi, err := NewDCQCNPI(DCQCNPIConfig{DCQCN: DCQCNConfig{Params: p}})
	if err != nil {
		t.Fatal(err)
	}
	y := pi.Initial()
	y[1] = 0.01
	var past ode.History = constHistory(append([]float64(nil), y...))
	dydt := make([]float64, len(y))
	if n := testing.AllocsPerRun(100, func() { pi.Derivs(1e-3, y, past, dydt) }); n != 0 {
		t.Errorf("DCQCN-PI Derivs allocates %v times per call", n)
	}

	loop, err := NewDCQCNLoop(p)
	if err != nil {
		t.Fatal(err)
	}
	z, zd, qd, dz := []float64{0.1, 6e5, 5e5}, [][]float64{{0.1, 6e5, 5e5}}, []float64{150}, make([]float64, 3)
	if n := testing.AllocsPerRun(100, func() { loop.Derivs(z, zd, qd, dz) }); n != 0 {
		t.Errorf("DCQCNLoop Derivs allocates %v times per call", n)
	}
}

// BenchmarkDCQCNFluidN64 is the fluid layer's rerunnable number: a 2 ms,
// 64-flow DCQCN run from jittered line-rate starts at the benchmark's 1 µs
// step. ns/flow-step is the cost of one flow through one RK4 step.
func BenchmarkDCQCNFluidN64(b *testing.B) {
	const n, h, horizon = 64, 1e-6, 2e-3
	p := DefaultDCQCNParams(n)
	rng := rand.New(rand.NewSource(1))
	rc := make([]float64, n)
	for i := range rc {
		rc[i] = p.C * (0.9 + 0.1*rng.Float64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewDCQCN(DCQCNConfig{Params: p, InitialRC: rc})
		if err != nil {
			b.Fatal(err)
		}
		Run(sys, h, horizon, 1e-4)
	}
	steps := float64(b.N) * horizon / h * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/flow-step")
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

// benchScale builds a random instance at the given scale with the paper's
// structure (d̂ ≫ d, ~60% link density, skewed demand).
func benchScale(n, u, f int) *model.Instance {
	rng := rand.New(rand.NewSource(99))
	return randomInstance(rng, n, u, f)
}

// BenchmarkSweep measures full Algorithm 1 runs with a fixed sweep budget:
// the Gauss-Seidel DUA sweep is the system's hot path. The "paper" scale is
// the §V-A default (N=3, U=30, F=50); "scaled" is the scaling-study regime
// (N=20, U=200, F=500) from the edge-caching literature's larger sweeps.
func BenchmarkSweep(b *testing.B) {
	for _, tc := range []struct {
		name    string
		n, u, f int
		sweeps  int
	}{
		{"paper_N3_U30_F50", 3, 30, 50, 4},
		{"scaled_N20_U200_F500", 20, 200, 500, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			inst := benchScale(tc.n, tc.u, tc.f)
			cfg := DefaultConfig()
			cfg.MaxSweeps = tc.sweeps
			cfg.Gamma = 1e-300 // exhaust the sweep budget: fixed work per iteration
			coord, err := NewCoordinator(inst, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// denseSlackScale builds an instance shaped like the dense-inproc benchmark
// workload: N=6, U=60, F=150, ~60% links, C=30, B=2000, aggregate demand
// 9000 with Zipf-like content skew. Unlike benchScale's paper-scale
// instance, the bandwidth budget rarely binds, so the exact-routing oracle
// of primal recovery walks every cached item instead of stopping after a
// few.
func denseSlackScale() *model.Instance {
	inst := benchScale(6, 60, 150)
	var total float64
	for u := range inst.Demand {
		for f := range inst.Demand[u] {
			inst.Demand[u][f] /= math.Pow(float64(f+1), 0.9)
			total += inst.Demand[u][f]
		}
	}
	for u := range inst.Demand {
		for f := range inst.Demand[u] {
			inst.Demand[u][f] *= 9000 / total
		}
	}
	for n := 0; n < inst.N; n++ {
		inst.CacheCap[n] = 30
		inst.Bandwidth[n] = 2000
	}
	return inst
}

// BenchmarkSubproblemSolveCore measures one warm P_n solve — the inner loop
// of every sweep. "paper_binding" is the paper scale, where the bandwidth
// budget binds after a few items and the dual loop's knapsack fill
// dominates; "dense_slack" is the dense-inproc shape, where the budget is
// slack and primal recovery's exact-routing probes dominate.
func BenchmarkSubproblemSolveCore(b *testing.B) {
	for _, tc := range []struct {
		name string
		inst *model.Instance
	}{
		{"paper_binding", benchScale(3, 30, 50)},
		{"dense_slack", denseSlackScale()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sub, err := NewSubproblem(tc.inst, 0, DefaultSubproblemConfig())
			if err != nil {
				b.Fatal(err)
			}
			yMinus := tc.inst.NewUFMat()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sub.Solve(yMinus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

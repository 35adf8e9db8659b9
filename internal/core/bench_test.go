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

// zipfDemand rescales inst's demand to a Zipf-like content skew
// (exponent 0.9) with aggregate demand total.
func zipfDemand(inst *model.Instance, total float64) {
	var sum float64
	for u := range inst.Demand {
		for f := range inst.Demand[u] {
			inst.Demand[u][f] /= math.Pow(float64(f+1), 0.9)
			sum += inst.Demand[u][f]
		}
	}
	for u := range inst.Demand {
		for f := range inst.Demand[u] {
			inst.Demand[u][f] *= total / sum
		}
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
	zipfDemand(inst, 9000)
	for n := 0; n < inst.N; n++ {
		inst.CacheCap[n] = 30
		inst.Bandwidth[n] = 2000
	}
	return inst
}

// sparseBindingScale builds an instance shaped like the sparse-inproc
// benchmark workload: N=50, U=200, F=120, each SBS linked to 8 MUs, every
// (u,f) pair demanded, C=12, B=200, aggregate demand 20000 with Zipf-like
// content skew. An SBS has 960 items, and the budget binds.
func sparseBindingScale() *model.Instance {
	inst := benchScale(50, 200, 120)
	rng := rand.New(rand.NewSource(98))
	for n := 0; n < inst.N; n++ {
		clear(inst.Links[n])
		for _, u := range rng.Perm(inst.U)[:8] {
			inst.Links[n][u] = true
		}
		inst.CacheCap[n] = 12
		inst.Bandwidth[n] = 200
	}
	for u := range inst.Demand {
		for f := range inst.Demand[u] {
			if inst.Demand[u][f] == 0 {
				inst.Demand[u][f] = 1 + rng.Float64()*19
			}
		}
	}
	zipfDemand(inst, 20000)
	return inst
}

// BenchmarkSubproblemSolveCore measures one warm P_n solve — the inner loop
// of every sweep. "paper_binding" is the paper scale and "sparse_binding"
// one SBS of the sparse-inproc shape, where the bandwidth budget binds
// after a few items; "dense_slack" is the dense-inproc shape, where the
// budget is slack. On all three the dual loop dominates: the cache
// searches of primal recovery walk only candidates that can win.
func BenchmarkSubproblemSolveCore(b *testing.B) {
	for _, tc := range []struct {
		name string
		inst *model.Instance
	}{
		{"paper_binding", benchScale(3, 30, 50)},
		{"dense_slack", denseSlackScale()},
		{"sparse_binding", sparseBindingScale()},
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

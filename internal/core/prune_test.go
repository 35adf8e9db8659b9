package core_test

import (
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
)

// goldenShape is the dense or sparse benchmark shape of the golden
// trajectory gate, at seed 1.
func goldenShape(dense bool) experiments.Scenario {
	s := experiments.DefaultScenario()
	if dense {
		s.SBSs, s.Groups, s.Videos, s.LinkCount = 6, 60, 150, 216
		s.CachePerSBS, s.Bandwidth, s.TargetDemand = 30, 2000, 9000
	} else {
		s.SBSs, s.Groups, s.Videos, s.LinkCount = 50, 200, 120, 400
		s.CachePerSBS, s.Bandwidth, s.TargetDemand = 12, 200, 20000
	}
	return s
}

// sweepCacheSearches runs one Gauss-Seidel sweep of the shape's
// sub-problems and, before each solve, checks the pruned cache searches
// against their references on that solve's y_{-n}. It returns the summed
// oracle walks of both and the bound checks made.
func sweepCacheSearches(t *testing.T, sc experiments.Scenario) (pruned, reference, pairs int) {
	t.Helper()
	inst, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	routing := model.NewRoutingPolicy(inst)
	for n := 0; n < inst.N; n++ {
		sub, err := core.NewSubproblem(inst, n, core.DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		yMinus := routing.AggregateExcept(inst, n)
		p, r, k := core.CheckCacheSearch(t, sub, yMinus)
		pruned, reference, pairs = pruned+p, reference+r, pairs+k
		res, err := sub.Solve(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		routing.SetSBS(n, res.Routing)
	}
	return pruned, reference, pairs
}

// TestCacheSearchGoldenShapes checks, on the dense and sparse golden
// shapes, that the pruned cache searches match their references and that
// every walked (base, candidate) pair is within its certified bound. On the
// dense shape it also guards the pruning itself: the searches must walk at
// most a tenth of what the references walk, so a change that quietly stops
// pruning fails here rather than only in the benchmark.
func TestCacheSearchGoldenShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every candidate of a full sweep; skipped in -short")
	}
	for _, tc := range []struct {
		name     string
		dense    bool
		maxRatio float64
	}{
		{"dense", true, 0.10},
		{"sparse", false, 1}, // checked, but its prune ratio is not guarded
	} {
		t.Run(tc.name, func(t *testing.T) {
			pruned, reference, pairs := sweepCacheSearches(t, goldenShape(tc.dense))
			ratio := float64(pruned) / float64(reference)
			t.Logf("oracle walks: %d pruned vs %d reference (%.1f%%); %d bounds checked", pruned, reference, 100*ratio, pairs)
			if pairs == 0 {
				t.Error("no bound was checked")
			}
			if ratio > tc.maxRatio {
				t.Errorf("pruned searches walk %.1f%% of the reference's walks, want at most %.0f%%", 100*ratio, 100*tc.maxRatio)
			}
		})
	}
}

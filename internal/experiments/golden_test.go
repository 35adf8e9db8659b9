package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

// update regenerates the golden trajectory file instead of checking it. It
// is only for an intentional trajectory change — a new algorithmic step or
// a changed default — never to make a performance refactor pass: a
// refactor that moves a single bit of the trajectory is a bug.
var update = flag.Bool("update", false, "rewrite testdata/golden_trajectories.txt (intentional trajectory changes only)")

const goldenPath = "testdata/golden_trajectories.txt"

// goldenCase is one pinned DUA run: a scenario, an engine and an LPPM
// budget (0 = non-private).
type goldenCase struct {
	name    string
	sc      Scenario
	engine  model.EngineKind
	epsilon float64
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, engine := range []model.EngineKind{model.EngineGaussSeidel, model.EngineJacobi, model.EngineParallelJacobi} {
		for _, eps := range []float64{0, 0.1} {
			for seed := int64(1); seed <= 3; seed++ {
				sc := DefaultScenario()
				sc.Seed = seed
				cases = append(cases, goldenCase{
					name:    fmt.Sprintf("paper/%v/eps=%g/seed=%d", engine, eps, seed),
					sc:      sc,
					engine:  engine,
					epsilon: eps,
				})
			}
		}
	}
	// Few SBSs with thousands of knapsack items each, and many SBSs with
	// small sparse neighbourhoods: the two scaled shapes the knapsack
	// kernels are tuned on.
	dense := DefaultScenario()
	dense.SBSs, dense.Groups, dense.Videos, dense.LinkCount = 6, 60, 150, 216
	dense.CachePerSBS, dense.Bandwidth, dense.TargetDemand = 30, 2000, 9000
	sparse := DefaultScenario()
	sparse.SBSs, sparse.Groups, sparse.Videos, sparse.LinkCount = 50, 200, 120, 400
	sparse.CachePerSBS, sparse.Bandwidth, sparse.TargetDemand = 12, 200, 20000
	cases = append(cases,
		goldenCase{name: "dense/gs/eps=0/seed=1", sc: dense, engine: model.EngineGaussSeidel},
		goldenCase{name: "sparse/gs/eps=0/seed=1", sc: sparse, engine: model.EngineGaussSeidel},
	)
	return cases
}

// run executes the case and returns its trajectory fingerprint: FNV-64a
// hashes over the Float64bits of the per-sweep cost history, over the final
// caching matrix, and over the Float64bits of the final routing tensor.
func (gc goldenCase) run(t *testing.T) string {
	t.Helper()
	inst, err := gc.sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Engine = gc.engine
	if gc.engine == model.EngineParallelJacobi {
		cfg.Workers = 2
	}
	if gc.epsilon > 0 {
		cfg.Privacy = &core.PrivacyConfig{
			Epsilon: gc.epsilon,
			Delta:   0.5,
			Noise:   core.NewNoiseSource(gc.sc.Seed * 1000),
		}
	}
	coord, err := core.NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}

	var buf [8]byte
	hashFloats := func(h interface{ Write([]byte) (int, error) }, v float64) {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	hist := fnv.New64a()
	for _, c := range res.History {
		hashFloats(hist, c)
	}
	cache := fnv.New64a()
	routing := fnv.New64a()
	sol := res.Solution
	for n := 0; n < inst.N; n++ {
		for f := 0; f < inst.F; f++ {
			if sol.Caching.Get(n, f) {
				cache.Write([]byte{1})
			} else {
				cache.Write([]byte{0})
			}
		}
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				hashFloats(routing, sol.Routing.At(n, u, f))
			}
		}
	}
	return fmt.Sprintf("sweeps=%d converged=%v history=%016x cache=%016x routing=%016x",
		res.Sweeps, res.Converged, hist.Sum64(), cache.Sum64(), routing.Sum64())
}

// TestGoldenTrajectories pins DUA's trajectories across commits: the cost
// history and final policy of every case must hash to the committed
// fingerprint bit for bit. Engine-equivalence tests compare engines within
// one build; this gate catches a change that moves every engine alike,
// which is what a hot-path refactor risks.
func TestGoldenTrajectories(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, gc := range cases {
		t.Run(gc.name, func(t *testing.T) { got[gc.name] = gc.run(t) })
	}
	if t.Failed() {
		return
	}

	if *update {
		var b strings.Builder
		b.WriteString("# DUA trajectory fingerprints; regenerate only with `go test ./internal/experiments -run TestGoldenTrajectories -update`.\n")
		for _, gc := range cases {
			fmt.Fprintf(&b, "%s %s\n", gc.name, got[gc.name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden file: %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, test runs %d", len(want), len(cases))
	}
	for _, gc := range cases {
		if w, ok := want[gc.name]; !ok {
			t.Errorf("%s: no golden fingerprint", gc.name)
		} else if got[gc.name] != w {
			t.Errorf("%s: trajectory drifted\n got  %s\n want %s", gc.name, got[gc.name], w)
		}
	}
}

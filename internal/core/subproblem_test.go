package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"edgecache/internal/model"
)

// randomInstance draws a small random instance with the paper's structure:
// d̂ ≫ d, unit-size contents, random links.
func randomInstance(rng *rand.Rand, n, u, f int) *model.Instance {
	inst := &model.Instance{
		N: n, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, n),
		CacheCap:  make([]int, n),
		Bandwidth: make([]float64, n),
		EdgeCost:  make([][]float64, n),
		BSCost:    make([]float64, u),
	}
	for i := 0; i < u; i++ {
		inst.Demand[i] = make([]float64, f)
		for j := 0; j < f; j++ {
			if rng.Float64() < 0.7 {
				inst.Demand[i][j] = rng.Float64() * 20
			}
		}
		inst.BSCost[i] = 100 + rng.Float64()*50
	}
	for i := 0; i < n; i++ {
		inst.Links[i] = make([]bool, u)
		inst.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			inst.Links[i][j] = rng.Float64() < 0.6
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

func zeroYMinus(inst *model.Instance) model.Mat { return inst.NewUFMat() }

func TestNewSubproblemErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := randomInstance(rng, 2, 3, 4)
	if _, err := NewSubproblem(inst, -1, SubproblemConfig{}); err == nil {
		t.Error("negative SBS index: want error")
	}
	if _, err := NewSubproblem(inst, 2, SubproblemConfig{}); err == nil {
		t.Error("out-of-range SBS index: want error")
	}
	bad := inst.Clone()
	bad.Demand[0][0] = -1
	if _, err := NewSubproblem(bad, 0, SubproblemConfig{}); err == nil {
		t.Error("invalid instance: want error")
	}
}

func TestSolveShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := randomInstance(rng, 1, 3, 4)
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Solve(model.NewMat(2, inst.F)); err == nil {
		t.Error("wrong row count: want error")
	}
	if _, err := sub.Solve(model.NewMat(inst.U, 2)); err == nil {
		t.Error("wrong column count: want error")
	}
}

// checkResultFeasible verifies a sub-problem result against the full
// constraint system for SBS n, with the aggregate routing of the others.
func checkResultFeasible(t *testing.T, inst *model.Instance, n int, res *Result, yMinus model.Mat) {
	t.Helper()
	// Cache capacity.
	count := 0
	for _, cached := range res.Cache {
		if cached {
			count++
		}
	}
	if count > inst.CacheCap[n] {
		t.Fatalf("cache uses %d slots, capacity %d", count, inst.CacheCap[n])
	}
	var load float64
	for u := 0; u < inst.U; u++ {
		for f := 0; f < inst.F; f++ {
			v := res.Routing.At(u, f)
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("routing[%d][%d] = %v outside [0,1]", u, f, v)
			}
			if v > 1e-9 {
				if !res.Cache[f] {
					t.Fatalf("routing[%d][%d] = %v without cached content", u, f, v)
				}
				if !inst.Links[n][u] {
					t.Fatalf("routing[%d][%d] = %v without link", u, f, v)
				}
				if v+yMinus.At(u, f) > 1+1e-6 {
					t.Fatalf("routing[%d][%d] overserves: %v + %v > 1", u, f, v, yMinus.At(u, f))
				}
			}
			load += v * inst.Demand[u][f]
		}
	}
	if load > inst.Bandwidth[n]*(1+1e-9)+1e-9 {
		t.Fatalf("load %v exceeds bandwidth %v", load, inst.Bandwidth[n])
	}
}

func TestSolveFeasibleAndPositiveGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(rng, 1, 4, 6)
		sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
		if err != nil {
			t.Fatal(err)
		}
		yMinus := zeroYMinus(inst)
		res, err := sub.Solve(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		checkResultFeasible(t, inst, 0, res, yMinus)
		if res.Gain < 0 {
			t.Fatalf("gain = %v, want ≥ 0", res.Gain)
		}
		// Gain must agree with an independent evaluation.
		if got := EvaluateUpload(inst, 0, res.Routing); math.Abs(got-res.Gain) > 1e-6*(1+res.Gain) {
			t.Fatalf("EvaluateUpload = %v, Result.Gain = %v", got, res.Gain)
		}
	}
}

// TestSolveMatchesExact certifies the dual solver against exhaustive cache
// enumeration on small instances: the recovered primal must reach ≥ 99.9%
// of the exact gain (the greedy primal-recovery candidate makes this hold
// in practice; a tiny tolerance covers knapsack tie-breaks).
func TestSolveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	worst := 1.0
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 1, 3+rng.Intn(3), 4+rng.Intn(4))
		sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
		if err != nil {
			t.Fatal(err)
		}
		yMinus := zeroYMinus(inst)
		// Random partial pre-service from "other SBSs".
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				if rng.Float64() < 0.3 {
					yMinus.Set(u, f, rng.Float64())
				}
			}
		}
		got, err := sub.Solve(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sub.SolveExact(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		if want.Gain <= 0 {
			continue
		}
		ratio := got.Gain / want.Gain
		if ratio < worst {
			worst = ratio
		}
		if ratio < 0.999 {
			t.Errorf("trial %d: dual gain %v < exact gain %v (ratio %v)", trial, got.Gain, want.Gain, ratio)
		}
	}
	t.Logf("worst dual/exact gain ratio over trials: %v", worst)
}

func TestSolveExactRefusesLargeF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 1, 2, 21)
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.SolveExact(zeroYMinus(inst)); err == nil {
		t.Error("F=21: want error")
	}
}

func TestSolveRespectsResidualCaps(t *testing.T) {
	// One MU, one content, fully pre-served by others: nothing to route.
	inst := &model.Instance{
		N: 1, U: 1, F: 1,
		Demand:    [][]float64{{10}},
		Links:     [][]bool{{true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{100},
		EdgeCost:  [][]float64{{1}},
		BSCost:    []float64{100},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	yMinus := model.NewMat(1, 1)
	yMinus.Set(0, 0, 1)
	res, err := sub.Solve(yMinus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing.At(0, 0) != 0 {
		t.Errorf("routing = %v, want 0 (demand already served)", res.Routing.At(0, 0))
	}
	// Half pre-served: can serve at most the other half.
	yMinus.Set(0, 0, 0.5)
	res, err = sub.Solve(yMinus)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Routing.At(0, 0)-0.5) > 1e-9 {
		t.Errorf("routing = %v, want 0.5", res.Routing.At(0, 0))
	}
}

func TestSolveBandwidthBinds(t *testing.T) {
	// Two MUs with different backhaul costs competing for tight bandwidth:
	// the high-d̂ MU must be preferred.
	inst := &model.Instance{
		N: 1, U: 2, F: 1,
		Demand:    [][]float64{{10}, {10}},
		Links:     [][]bool{{true, true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{10},
		EdgeCost:  [][]float64{{1, 1}},
		BSCost:    []float64{200, 100},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Routing.At(0, 0)-1) > 1e-9 {
		t.Errorf("high-value MU served %v, want 1", res.Routing.At(0, 0))
	}
	if res.Routing.At(1, 0) > 1e-9 {
		t.Errorf("low-value MU served %v, want 0 (bandwidth exhausted)", res.Routing.At(1, 0))
	}
}

func TestSolveCacheCapacityBinds(t *testing.T) {
	// Three contents, capacity 1: only the most demanded content cached.
	inst := &model.Instance{
		N: 1, U: 1, F: 3,
		Demand:    [][]float64{{1, 5, 3}},
		Links:     [][]bool{{true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{100},
		EdgeCost:  [][]float64{{1}},
		BSCost:    []float64{100},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cache[1] || res.Cache[0] || res.Cache[2] {
		t.Errorf("cache = %v, want only content 1", res.Cache)
	}
	if math.Abs(res.Routing.At(0, 1)-1) > 1e-9 {
		t.Errorf("routing[0][1] = %v, want 1", res.Routing.At(0, 1))
	}
}

func TestSolveZeroCapacitySBS(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := randomInstance(rng, 1, 3, 4)
	inst.CacheCap[0] = 0
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain != 0 {
		t.Errorf("gain = %v, want 0 with no cache", res.Gain)
	}
}

func TestSolveNoLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 1, 3, 4)
	for u := range inst.Links[0] {
		inst.Links[0][u] = false
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain != 0 {
		t.Errorf("gain = %v, want 0 with no links", res.Gain)
	}
}

// Property: sub-problem solutions are always feasible, for random
// instances and random residual capacities.
func TestSolveFeasibilityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1, 2+rng.Intn(5), 2+rng.Intn(8))
		sub, err := NewSubproblem(inst, 0, SubproblemConfig{DualIters: 30})
		if err != nil {
			return false
		}
		yMinus := zeroYMinus(inst)
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				yMinus.Set(u, f, rng.Float64()*1.2) // may exceed 1: cap must clamp
			}
		}
		res, err := sub.Solve(yMinus)
		if err != nil {
			return false
		}
		count := 0
		for _, cached := range res.Cache {
			if cached {
				count++
			}
		}
		if count > inst.CacheCap[0] {
			return false
		}
		var load float64
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				v := res.Routing.At(u, f)
				if v < 0 || v > 1+1e-9 {
					return false
				}
				if v > 1e-9 && (!res.Cache[f] || !inst.Links[0][u]) {
					return false
				}
				if v > clamp01(1-yMinus.At(u, f))+1e-9 {
					return false
				}
				load += v * inst.Demand[u][f]
			}
		}
		return load <= inst.Bandwidth[0]*(1+1e-9)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRoutingGivenCachePrefersDensity(t *testing.T) {
	inst := &model.Instance{
		N: 1, U: 2, F: 2,
		Demand:    [][]float64{{4, 0}, {0, 4}},
		Links:     [][]bool{{true, true}},
		CacheCap:  []int{2},
		Bandwidth: []float64{4},
		EdgeCost:  [][]float64{{1, 1}},
		BSCost:    []float64{50, 150},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{1, 1}
	y, gain := sub.RoutingGivenCache([]bool{true, true}, caps)
	// Bandwidth 4 fits exactly one full demand; MU1 (density 149) wins.
	var served0, served1 float64
	for i, it := range sub.items {
		if it.u == 0 {
			served0 = y[i]
		} else {
			served1 = y[i]
		}
	}
	if math.Abs(served1-1) > 1e-9 || served0 > 1e-9 {
		t.Errorf("served = (%v, %v), want (0, 1)", served0, served1)
	}
	if math.Abs(gain-149*4) > 1e-6 {
		t.Errorf("gain = %v, want %v", gain, 149.0*4)
	}
}

// refFill is what the reference oracle computed: the routing, its gain,
// the items filled in fill order, the budget left over, and whether some
// fill was clipped by the budget rather than by the item's residual
// capacity.
type refFill struct {
	y       []float64
	gain    float64
	filled  []int
	budget  float64
	clipped bool
}

// refRoutingGivenCache is the dense-scan exact-routing oracle the row ×
// cached-content walk replaced, kept as the reference it must match bit for
// bit: every item in static density order (ties by index), skipping
// uncached, capacity-less and gainless items.
func refRoutingGivenCache(s *Subproblem, x []bool, caps []float64) refFill {
	density := func(i int) float64 {
		it := s.items[i]
		return s.inst.BSCost[it.u] - s.inst.EdgeCost[s.n][it.u]
	}
	order := make([]int, len(s.items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if density(ia) != density(ib) {
			return density(ia) > density(ib)
		}
		return ia < ib
	})
	out := refFill{y: make([]float64, len(s.items)), budget: s.inst.Bandwidth[s.n]}
	for _, i := range order {
		if out.budget <= 1e-12 {
			break
		}
		it := s.items[i]
		if !x[it.f] || caps[i] <= 0 || it.gain <= 0 {
			continue
		}
		amount := math.Min(caps[i], out.budget/it.lambda)
		out.clipped = out.clipped || amount < caps[i]
		out.y[i] = amount
		out.filled = append(out.filled, i)
		out.budget -= amount * it.lambda
		out.gain += amount * it.gain
	}
	return out
}

// refRoutingStep is the full-sort dual knapsack the heap replaced: every
// eligible item sorted by (w/λ, index), filled until the budget is spent.
// dupRatio reports whether two eligible items tied on ratio.
func refRoutingStep(s *Subproblem, mu, caps []float64) (y []float64, dupRatio bool) {
	y = make([]float64, len(s.items))
	ratio := make([]float64, len(s.items))
	var order []int
	for i, it := range s.items {
		if w := -it.gain + mu[i]; w < 0 && caps[i] > 0 {
			ratio[i] = w / it.lambda
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if ratio[ia] != ratio[ib] {
			return ratio[ia] < ratio[ib]
		}
		return ia < ib
	})
	for k := 1; k < len(order); k++ {
		dupRatio = dupRatio || ratio[order[k]] == ratio[order[k-1]]
	}
	budget := s.inst.Bandwidth[s.n]
	for _, i := range order {
		if budget <= 0 {
			break
		}
		it := s.items[i]
		amount := math.Min(caps[i], budget/it.lambda)
		y[i] = amount
		budget -= amount * it.lambda
	}
	return y, dupRatio
}

// kernelCase is one single-SBS knapsack plus the per-call inputs of both
// routing kernels.
type kernelCase struct {
	sub  *Subproblem
	x    []bool
	caps []float64
	mu   []float64
}

// decodeKernelCase deterministically maps bytes onto a kernelCase (nil
// when too few bytes). Costs, demands, capacities and multipliers come
// from small discrete sets, so density ties across MUs, duplicate ratios,
// zero-demand pairs, non-positive gains and budgets that land exactly on 0
// are common rather than measure-zero.
func decodeKernelCase(data []byte) *kernelCase {
	if len(data) < 4 {
		return nil
	}
	pos := 0
	next := func() int {
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	nu, nf := next()%6+1, next()%7+1
	inst := &model.Instance{
		N: 1, U: nu, F: nf,
		Demand:    make([][]float64, nu),
		Links:     [][]bool{make([]bool, nu)},
		CacheCap:  []int{nf},
		Bandwidth: []float64{0},
		EdgeCost:  [][]float64{make([]float64, nu)},
		BSCost:    make([]float64, nu),
	}
	for u := 0; u < nu; u++ {
		inst.BSCost[u] = float64(next()%4) * 25
		inst.EdgeCost[0][u] = float64(next()%3) * 20
		inst.Links[0][u] = next()%4 != 0
		inst.Demand[u] = make([]float64, nf)
		for f := range inst.Demand[u] {
			d := float64(next() % 5)
			if d > 0 && next()%3 == 0 {
				d += float64(next()) / 256
			}
			inst.Demand[u][f] = d
		}
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		panic(err) // the decoder only builds valid instances
	}
	c := &kernelCase{sub: sub, x: make([]bool, nf), caps: make([]float64, len(sub.items)), mu: make([]float64, len(sub.items))}
	mode := next() % 4
	for f := range c.x {
		c.x[f] = mode == 1 || (mode > 1 && next()%2 == 0)
	}
	for i, it := range sub.items {
		switch next() % 6 {
		case 0:
			c.caps[i] = 0
		case 1:
			c.caps[i] = -0.5
		case 2:
			c.caps[i] = 1
		case 3:
			c.caps[i] = 0.5
		case 4:
			c.caps[i] = float64(next()) / 255
		case 5:
			c.caps[i] = 1e-3
		}
		switch next() % 4 {
		case 1:
			c.mu[i] = it.gain
		case 2:
			c.mu[i] = it.gain * float64(next()) / 256
		case 3:
			c.mu[i] = 2*math.Abs(it.gain) + 1
		}
	}
	var total float64
	for _, it := range sub.items {
		total += it.lambda
	}
	switch next() % 5 {
	case 0:
		inst.Bandwidth[0] = 0
	case 1:
		inst.Bandwidth[0] = 2*total + 1
	case 2:
		inst.Bandwidth[0] = total * float64(next()) / 256
	default:
		// The exact load of the oracle's first k fills, so the budget lands
		// on exactly 0 there — or, with the 1e-13 slack, just above the
		// oracle's 1e-12 cut-off but not the dual fill's 0.
		inst.Bandwidth[0] = 2*total + 1
		ref := refRoutingGivenCache(sub, c.x, c.caps)
		var load float64
		for _, i := range ref.filled[:next()%(len(ref.filled)+1)] {
			load += ref.y[i] * sub.items[i].lambda
		}
		inst.Bandwidth[0] = load
		if next()%2 == 0 {
			inst.Bandwidth[0] += 1e-13
		}
	}
	return c
}

// checkKernels asserts that both production kernels reproduce their
// references bit for bit: the oracle with a routing buffer (pre-filled
// with garbage it must clear) and gain-only, and the heap-based dual fill.
// The dual fill's entries come from dualPass at y = 0, x = ∅ and η = 0,
// which sets μ to max(0, c.mu) and collects the items eligible under it;
// the reference fills under that μ. The dual loop never holds a negative
// μ, and no negative c.mu makes an item eligible: it only occurs on items
// with gain ≤ 0, where −gain + μ ≥ 0 either way.
func checkKernels(t *testing.T, c *kernelCase) (ref refFill, dupRatio bool) {
	t.Helper()
	s := c.sub
	ref = refRoutingGivenCache(s, c.x, c.caps)
	y := make([]float64, len(s.items))
	for i := range y {
		y[i] = math.NaN()
	}
	gain, _ := s.routingGivenCacheInto(c.x, c.caps, y)
	if math.Float64bits(gain) != math.Float64bits(ref.gain) {
		t.Fatalf("oracle gain %v (%#x), reference %v (%#x)", gain, math.Float64bits(gain), ref.gain, math.Float64bits(ref.gain))
	}
	if g, _ := s.routingGivenCacheInto(c.x, c.caps, nil); math.Float64bits(g) != math.Float64bits(ref.gain) {
		t.Fatalf("gain-only oracle %v, reference %v", g, ref.gain)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref.y[i]) {
			t.Fatalf("oracle y[%d] = %v, reference %v", i, y[i], ref.y[i])
		}
	}
	ws := &s.ws
	copy(ws.mu, c.mu)
	clear(ws.yDual)
	clear(ws.xStep)
	s.dualPass(ws.xStep, c.caps, 0)
	wantDual, dupRatio := refRoutingStep(s, ws.mu, c.caps)
	s.routingStep(c.caps)
	for i, yi := range ws.yDual {
		if math.Float64bits(yi) != math.Float64bits(wantDual[i]) {
			t.Fatalf("dual fill y[%d] = %v, reference %v", i, yi, wantDual[i])
		}
	}
	return ref, dupRatio
}

// TestRoutingKernelsMatchReference is the differential test of the two
// knapsack kernels against the implementations they replaced, over random
// byte-decoded cases. It also asserts that the draw actually exercised
// each edge case the kernels must agree on.
func TestRoutingKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hit := map[string]int{}
	const cases = 1000
	for k := 0; k < cases; k++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		c := decodeKernelCase(data)
		ref, dupRatio := checkKernels(t, c)

		s, inst := c.sub, c.sub.inst
		density := map[float64]int{}
		for u := 0; u < inst.U; u++ {
			if !inst.Links[0][u] {
				continue
			}
			density[inst.BSCost[u]-inst.EdgeCost[0][u]]++
			for f := 0; f < inst.F; f++ {
				if inst.Demand[u][f] == 0 {
					hit["zero-demand pair"]++
				}
			}
		}
		for _, count := range density {
			if count > 1 {
				hit["equal-density MUs"]++
			}
		}
		for i, it := range s.items {
			if c.caps[i] <= 0 {
				hit["caps <= 0"]++
			}
			if it.gain <= 0 {
				hit["non-positive gain"]++
			}
		}
		filled := len(ref.filled) > 0
		if ref.clipped {
			hit["caps above budget/lambda"]++
		}
		switch {
		case filled && ref.budget == 0:
			hit["budget lands at 0"]++
		case filled && ref.budget > 0 && ref.budget <= 1e-12:
			hit["budget lands at ~1e-13"]++
		case filled && ref.budget > 1e-12:
			hit["slack budget"]++
		}
		cachedCount := 0
		for _, in := range c.x {
			if in {
				cachedCount++
			}
		}
		switch cachedCount {
		case 0:
			hit["empty cache"]++
		case inst.F:
			hit["full cache"]++
		}
		if dupRatio {
			hit["duplicate ratios"]++
		}
	}
	for _, want := range []string{
		"equal-density MUs", "zero-demand pair", "caps <= 0", "caps above budget/lambda",
		"non-positive gain", "budget lands at 0", "budget lands at ~1e-13", "slack budget",
		"empty cache", "full cache", "duplicate ratios",
	} {
		if hit[want] == 0 {
			t.Errorf("%d cases never exercised %q", cases, want)
		}
	}
	t.Logf("edge-case coverage over %d cases: %v", cases, hit)
}

// FuzzRoutingKernels extends the differential test to fuzzer-chosen cases.
// Run longer sessions with `go test -fuzz=FuzzRoutingKernels ./internal/core`.
func FuzzRoutingKernels(f *testing.F) {
	f.Add([]byte{3, 4, 1, 2, 1, 2, 3, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := decodeKernelCase(data); c != nil {
			checkKernels(t, c)
		}
	})
}

// refCachingStep is the caching step the top-C_n select replaced: every
// positive-score content sorted by (score desc, index asc), the first C_n
// cached. It returns a fresh vector and the sorted contents.
func refCachingStep(s *Subproblem, score []float64) (x []bool, sorted []int) {
	x = make([]bool, s.inst.F)
	for f, sc := range score {
		if sc > 0 {
			sorted = append(sorted, f)
		}
	}
	sort.Slice(sorted, func(a, b int) bool {
		fa, fb := sorted[a], sorted[b]
		if score[fa] != score[fb] {
			return score[fa] > score[fb]
		}
		return fa < fb
	})
	for _, f := range sorted[:min(len(sorted), s.inst.CacheCap[s.n])] {
		x[f] = true
	}
	return x, sorted
}

// dualStats is what refDualLoop observed across its caching steps.
type dualStats struct {
	iters int
	// equalScores: two positive scores tied; tieAtCut: the C_n-th and
	// (C_n+1)-th best tied, so the index decided which is cached.
	equalScores, tieAtCut bool
	// capCovers: 0 < positive scores ≤ C_n; capCuts: C_n < positive scores.
	capCovers, capCuts bool
}

// refDualLoop is Solve's dual loop before it was fused into one pass per
// iteration, kept as the reference it must match bit for bit: per
// iteration a score pass, the sorting caching step, the full-scan full-sort
// knapsack fill and a separate μ update. It runs on sub's workspace — μ,
// scores and candidate pool — and leaves the scores of the final μ in
// ws.score, as the fused loop does.
func refDualLoop(sub *Subproblem, caps []float64) dualStats {
	ws := &sub.ws
	mu, score := ws.mu, ws.score
	for i := range mu {
		mu[i] = 0
	}
	sumScores := func() {
		for f := range score {
			score[f] = 0
		}
		for i, it := range sub.items {
			score[it.f] += mu[i]
		}
	}
	ws.pool.reset()
	var st dualStats
	capN := sub.inst.CacheCap[sub.n]
	for k := 0; k < sub.cfg.DualIters; k++ {
		st.iters++
		sumScores()
		x, sorted := refCachingStep(sub, score)
		for j := 1; j < len(sorted); j++ {
			if score[sorted[j]] == score[sorted[j-1]] {
				st.equalScores = true
				st.tieAtCut = st.tieAtCut || j == capN
			}
		}
		st.capCovers = st.capCovers || (len(sorted) > 0 && len(sorted) <= capN)
		st.capCuts = st.capCuts || len(sorted) > capN
		ws.pool.add(x)
		y, _ := refRoutingStep(sub, mu, caps)
		eta := sub.stepScale / (1 + sub.cfg.Alpha*float64(k))
		done := true
		for i, it := range sub.items {
			g := y[i]
			if x[it.f] {
				g -= 1
			}
			if g > 1e-9 {
				done = false
			}
			mu[i] = math.Max(0, mu[i]+eta*g)
		}
		if done && k >= 1 {
			break
		}
	}
	sumScores()
	return st
}

// dualCase is one single-SBS sub-problem and the aggregate routing of the
// other SBSs it is solved against.
type dualCase struct {
	inst   *model.Instance
	cfg    SubproblemConfig
	yMinus model.Mat
}

// decodeDualCase deterministically maps bytes onto a dualCase (nil when
// too few bytes). Costs, demands and capacities come from small discrete
// sets and demand columns are often duplicated, so score ties are common;
// y_{-n} entries of 1 and NaN give caps of 0 and NaN.
func decodeDualCase(data []byte) *dualCase {
	if len(data) < 4 {
		return nil
	}
	pos := 0
	next := func() int {
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	nu, nf := next()%6+1, next()%9+1
	inst := &model.Instance{
		N: 1, U: nu, F: nf,
		Demand:    make([][]float64, nu),
		Links:     [][]bool{make([]bool, nu)},
		CacheCap:  []int{0},
		Bandwidth: []float64{0},
		EdgeCost:  [][]float64{make([]float64, nu)},
		BSCost:    make([]float64, nu),
	}
	for u := 0; u < nu; u++ {
		inst.BSCost[u] = float64(1+next()%4) * 25
		inst.EdgeCost[0][u] = float64(next()%3) * 20
		inst.Links[0][u] = next()%5 != 0
		inst.Demand[u] = make([]float64, nf)
		for f := range inst.Demand[u] {
			d := float64(next() % 5)
			if d > 0 && next()%3 == 0 {
				d += float64(next()) / 256
			}
			inst.Demand[u][f] = d
		}
	}
	for dup := next() % 3; dup > 0 && nf > 1; dup-- {
		// A duplicated demand column: two contents tie exactly everywhere.
		src, dst := next()%nf, next()%nf
		for u := range inst.Demand {
			inst.Demand[u][dst] = inst.Demand[u][src]
		}
	}
	switch next() % 5 {
	case 0:
		inst.CacheCap[0] = 0
	case 1:
		inst.CacheCap[0] = nf + 1 + next()%2
	default:
		inst.CacheCap[0] = 1 + next()%nf
	}
	var total float64
	for u := range inst.Demand {
		for _, d := range inst.Demand[u] {
			total += d
		}
	}
	switch next() % 4 {
	case 0:
		inst.Bandwidth[0] = 0
	case 1:
		inst.Bandwidth[0] = 2*total + 1
	default:
		inst.Bandwidth[0] = total * float64(next()) / 256
	}
	c := &dualCase{inst: inst, yMinus: inst.NewUFMat()}
	for i := range c.yMinus.Data {
		switch next() % 8 {
		case 0:
			c.yMinus.Data[i] = 1
		case 1:
			c.yMinus.Data[i] = 0.5
		case 2:
			c.yMinus.Data[i] = float64(next()) / 255
		case 3:
			if next()%8 == 0 {
				c.yMinus.Data[i] = math.NaN()
			}
		}
	}
	c.cfg = SubproblemConfig{DualIters: []int{1, 2, 7, 60}[next()%4]}
	return c
}

// checkDualLoop solves c with Solve and with refDualLoop plus the same
// primal recovery, on two Subproblems, and asserts bit-equal μ, scores of
// the final μ, candidate pool, iteration count and Result.
func checkDualLoop(t testing.TB, c *dualCase) dualStats {
	t.Helper()
	sub, err := NewSubproblem(c.inst, 0, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSubproblem(c.inst, 0, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage in the dual workspace, which Solve must not read.
	for i := range sub.ws.mu {
		sub.ws.mu[i], sub.ws.yDual[i] = math.NaN(), math.NaN()
	}
	got, err := sub.Solve(c.yMinus)
	if err != nil {
		t.Fatal(err)
	}
	caps := capsFor(ref, c.yMinus)
	st := refDualLoop(ref, caps)
	want := ref.recoverPrimal(caps)
	want.DualIters = st.iters

	sameBits := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, reference %v", what, i, a[i], b[i])
			}
		}
	}
	sameBits("mu", sub.ws.mu, ref.ws.mu)
	sameBits("score", sub.ws.score, ref.ws.score)
	if sub.ws.pool.n != ref.ws.pool.n {
		t.Fatalf("candidate pool holds %d vectors, reference %d", sub.ws.pool.n, ref.ws.pool.n)
	}
	for k := 0; k < ref.ws.pool.n; k++ {
		if !boolsEqual(sub.ws.pool.list[k], ref.ws.pool.list[k]) {
			t.Fatalf("candidate %d = %v, reference %v", k, members(sub.ws.pool.list[k]), members(ref.ws.pool.list[k]))
		}
	}
	if got.DualIters != want.DualIters {
		t.Fatalf("DualIters = %d, reference %d", got.DualIters, want.DualIters)
	}
	if !boolsEqual(got.Cache, want.Cache) {
		t.Fatalf("cache %v, reference %v", members(got.Cache), members(want.Cache))
	}
	sameBits("gain", []float64{got.Gain}, []float64{want.Gain})
	sameBits("routing", got.Routing.Data, want.Routing.Data)
	return st
}

// TestDualLoopMatchesReference is the differential test of the fused dual
// loop against the three-pass loop it replaced, over random byte-decoded
// cases. It also asserts that the draw exercised each edge case the
// caching select and the fused pass must get right.
func TestDualLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	hit := map[string]int{}
	const cases = 2000
	for k := 0; k < cases; k++ {
		data := make([]byte, 8+rng.Intn(200))
		rng.Read(data)
		c := decodeDualCase(data)
		st := checkDualLoop(t, c)

		if st.equalScores {
			hit["equal scores"]++
		}
		if st.tieAtCut {
			hit["equal scores at the C_n cut"]++
		}
		if st.capCovers {
			hit["C_n >= positive scores"]++
		}
		if st.capCuts {
			hit["C_n < positive scores"]++
		}
		if st.iters < c.cfg.DualIters {
			hit["early done break"]++
		}
		switch capN := c.inst.CacheCap[0]; {
		case capN == 0:
			hit["C_n = 0"]++
		case capN > c.inst.F:
			hit["C_n > F"]++
		}
		for _, v := range c.yMinus.Data {
			switch {
			case math.IsNaN(v):
				hit["NaN caps"]++
			case v >= 1:
				hit["caps <= 0"]++
			}
		}
	}
	for _, want := range []string{
		"equal scores", "equal scores at the C_n cut", "C_n >= positive scores", "C_n < positive scores",
		"early done break", "C_n = 0", "C_n > F", "NaN caps", "caps <= 0",
	} {
		if hit[want] == 0 {
			t.Errorf("%d cases never exercised %q", cases, want)
		}
	}
	t.Logf("edge-case coverage over %d cases: %v", cases, hit)
}

// FuzzDualLoop extends the dual-loop differential test to fuzzer-chosen
// cases. Run longer sessions with
// `go test -fuzz=FuzzDualLoop ./internal/core`.
func FuzzDualLoop(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 1, 2, 3, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := decodeDualCase(data); c != nil {
			checkDualLoop(t, c)
		}
	})
}

// probeFunc observes one candidate walk of a reference cache search: the
// candidate set t, the content f it adds to its base t − f, and the gain
// the oracle walked for t. t must be left as it was.
type probeFunc func(t []bool, f int, gain float64)

// refGreedyCache is the greedy cache search before pruning, kept as the
// reference the pruned greedyCache must match bit for bit: it walks every
// candidate of every round. It returns a fresh vector.
func refGreedyCache(s *Subproblem, caps []float64, probe probeFunc) []bool {
	x := make([]bool, s.inst.F)
	capN := s.inst.CacheCap[s.n]
	if capN == 0 || len(s.items) == 0 {
		return x
	}
	baseGain, _ := s.routingGivenCacheInto(x, caps, nil)
	for picked := 0; picked < capN; picked++ {
		bestF, bestGain := -1, baseGain
		for f := 0; f < s.inst.F; f++ {
			if x[f] {
				continue
			}
			x[f] = true
			gain, _ := s.routingGivenCacheInto(x, caps, nil)
			if probe != nil {
				probe(x, f, gain)
			}
			x[f] = false
			if gain > bestGain+1e-12 {
				bestF, bestGain = f, gain
			}
		}
		if bestF == -1 {
			break
		}
		x[bestF] = true
		baseGain = bestGain
	}
	return x
}

// refLocalSearch is the 1-swap local search before pruning, the reference
// for localSearch: it walks every swap. x is improved in place.
func refLocalSearch(s *Subproblem, x []bool, gain float64, caps []float64, probe probeFunc) {
	const maxPasses = 4
	work := append([]bool(nil), x...)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for out := 0; out < s.inst.F; out++ {
			if !work[out] {
				continue
			}
			for in := 0; in < s.inst.F; in++ {
				if work[in] || in == out {
					continue
				}
				work[out], work[in] = false, true
				candGain, _ := s.routingGivenCacheInto(work, caps, nil)
				if probe != nil {
					probe(work, in, candGain)
				}
				if candGain > gain+1e-9 {
					gain = candGain
					copy(x, work)
					improved = true
					break
				}
				work[out], work[in] = true, false
			}
		}
		if !improved {
			break
		}
	}
}

// capsFor computes a solve's residual capacities as Solve does.
func capsFor(s *Subproblem, yMinus model.Mat) []float64 {
	caps := make([]float64, len(s.items))
	for i, it := range s.items {
		caps[i] = clamp01(1 - yMinus.At(it.u, it.f))
	}
	return caps
}

// searchStats is what checkCacheSearch observed.
type searchStats struct {
	pairs       int  // (base, candidate) pairs whose bound was checked
	prunedWalks int  // oracle walks of the pruned searches
	refWalks    int  // oracle walks of the reference searches
	swapped     bool // some reference local search adopted a swap
}

// checkCacheSearch asserts that the pruned greedyCache and localSearch
// adopt exactly what their unpruned references adopt, bit for bit, and
// that every (base, candidate) pair the references walk has a walked gain
// at most its certified bound. The local search runs from the greedy
// vector and, when x0 is non-nil, from x0 too.
func checkCacheSearch(t testing.TB, s *Subproblem, caps []float64, x0 []bool) searchStats {
	t.Helper()
	ws := &s.ws
	ws.prune = s.fillBoundTables(caps)
	var st searchStats
	base := make([]bool, s.inst.F)
	sound := func(cand []bool, f int, gain float64) {
		copy(base, cand)
		base[f] = false
		_, stop := s.routingGivenCacheInto(base, caps, nil)
		b := s.baseBound(base, stop)
		if !b.on {
			return
		}
		st.pairs++
		if !(gain <= b.bound(f)) {
			t.Fatalf("walked gain %v of base %v + content %d exceeds its bound %v (stop row %d)", gain, members(base), f, b.bound(f), stop)
		}
	}

	walks := ws.walks
	refX := refGreedyCache(s, caps, nil)
	refGain, _ := s.routingGivenCacheInto(refX, caps, nil)
	st.refWalks += ws.walks - walks
	walks = ws.walks
	x := s.greedyCache(caps)
	gain, _ := s.routingGivenCacheInto(x, caps, nil)
	st.prunedWalks += ws.walks - walks
	if !boolsEqual(x, refX) || math.Float64bits(gain) != math.Float64bits(refGain) {
		t.Fatalf("greedy cache %v gain %v, reference %v gain %v", x, gain, refX, refGain)
	}
	refGreedyCache(s, caps, sound)

	starts := [][]bool{refX}
	if x0 != nil {
		starts = append(starts, x0)
	}
	for _, start := range starts {
		startGain, _ := s.routingGivenCacheInto(start, caps, nil)
		want := append([]bool(nil), start...)
		walks = ws.walks
		refLocalSearch(s, want, startGain, caps, nil)
		st.refWalks += ws.walks - walks
		st.swapped = st.swapped || !boolsEqual(want, start)
		got := append([]bool(nil), start...)
		walks = ws.walks
		s.localSearch(got, startGain, caps)
		st.prunedWalks += ws.walks - walks
		wantGain, _ := s.routingGivenCacheInto(want, caps, nil)
		gotGain, _ := s.routingGivenCacheInto(got, caps, nil)
		if !boolsEqual(got, want) || math.Float64bits(gotGain) != math.Float64bits(wantGain) {
			t.Fatalf("local search from %v: %v gain %v, reference %v gain %v", start, got, gotGain, want, wantGain)
		}
		refLocalSearch(s, append([]bool(nil), start...), startGain, caps, sound)
	}
	return st
}

// members lists the contents a cache vector holds.
func members(x []bool) []int {
	var out []int
	for f, in := range x {
		if in {
			out = append(out, f)
		}
	}
	return out
}

// searchCase is one single-SBS cache search: the knapsack, the solve's
// caps, and a second start vector for the local search.
type searchCase struct {
	sub  *Subproblem
	caps []float64
	x0   []bool
	// boundary is the cache set whose walk the decoder aimed to end
	// exactly on a row boundary, or nil.
	boundary []bool
}

// decodeSearchCase deterministically maps bytes onto a searchCase (nil
// when too few bytes). Costs, demands and capacities come from small
// discrete sets, so exact gain ties, equal row densities and budgets that
// run out exactly at the end of a row are common rather than measure-zero.
func decodeSearchCase(data []byte) *searchCase {
	if len(data) < 4 {
		return nil
	}
	pos := 0
	next := func() int {
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	nu, nf := next()%6+1, next()%8+1
	inst := &model.Instance{
		N: 1, U: nu, F: nf,
		Demand:    make([][]float64, nu),
		Links:     [][]bool{make([]bool, nu)},
		CacheCap:  []int{0},
		Bandwidth: []float64{0},
		EdgeCost:  [][]float64{make([]float64, nu)},
		BSCost:    make([]float64, nu),
	}
	for u := 0; u < nu; u++ {
		inst.BSCost[u] = float64(1+next()%4) * 25
		inst.EdgeCost[0][u] = float64(next()%3) * 20
		inst.Links[0][u] = next()%5 != 0
		inst.Demand[u] = make([]float64, nf)
		for f := range inst.Demand[u] {
			d := float64(next() % 5)
			if d > 0 && next()%3 == 0 {
				d += float64(next()) / 256
			}
			inst.Demand[u][f] = d
		}
	}
	if nf > 1 && next()%2 == 0 {
		// A duplicated demand column: two contents tie exactly everywhere.
		src, dst := next()%nf, next()%nf
		for u := range inst.Demand {
			inst.Demand[u][dst] = inst.Demand[u][src]
		}
	}
	switch next() % 4 {
	case 0:
		inst.CacheCap[0] = 0
	case 1:
		inst.CacheCap[0] = nf + next()%2
	default:
		inst.CacheCap[0] = 1 + next()%nf
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		panic(err) // the decoder only builds valid instances
	}
	c := &searchCase{sub: sub, caps: make([]float64, len(sub.items)), x0: make([]bool, nf)}
	for i := range c.caps {
		switch next() % 6 {
		case 0:
			c.caps[i] = 0
		case 1, 2:
			c.caps[i] = 1
		case 3:
			c.caps[i] = 0.5
		case 4:
			c.caps[i] = float64(next()) / 255
		case 5:
			c.caps[i] = 1e-3
		}
	}
	if len(c.caps) > 0 && next()%12 == 0 {
		c.caps[next()%len(c.caps)] = math.NaN()
	}
	room := inst.CacheCap[0]
	for f := range c.x0 {
		if room > 0 && next()%2 == 0 {
			c.x0[f] = true
			room--
		}
	}
	var total float64
	for _, it := range sub.items {
		total += it.lambda
	}
	switch next() % 6 {
	case 0:
		inst.Bandwidth[0] = 0
	case 1:
		inst.Bandwidth[0] = 1e-13
	case 2:
		inst.Bandwidth[0] = total * float64(next()) / 256
	case 3:
		inst.Bandwidth[0] = 2*total + 1
	default:
		// The load of a cache set's first k rows, summed in the walk's fill
		// order, so its walk runs out at the end of row k−1 — or, with the
		// 1e-13 slack, just above the oracle's 1e-12 cut-off.
		c.boundary = make([]bool, nf)
		for f := range c.boundary {
			c.boundary[f] = next()%3 != 0
		}
		inst.Bandwidth[0] = 2*total + 1
		ref := refRoutingGivenCache(sub, c.boundary, c.caps)
		rows := 1 + next()%max(len(sub.rowDens), 1)
		var load float64
		for _, i := range ref.filled {
			if sub.rowOf(i) >= rows {
				break
			}
			load += ref.y[i] * sub.items[i].lambda
		}
		inst.Bandwidth[0] = load
		if next()%2 == 0 {
			inst.Bandwidth[0] += 1e-13
		}
	}
	return c
}

// rowOf is the rowItems row holding item i, or −1.
func (s *Subproblem) rowOf(i int) int {
	for k, j := range s.rowItems {
		if j == i {
			return k / s.inst.F
		}
	}
	return -1
}

// endsOnRowBoundary reports whether the oracle's walk of x runs its budget
// down to at most 1e-12 with the last item of a row, filled to its cap.
func endsOnRowBoundary(s *Subproblem, x []bool, caps []float64) bool {
	ref := refRoutingGivenCache(s, x, caps)
	if len(ref.filled) == 0 || ref.budget > 1e-12 {
		return false
	}
	last := ref.filled[len(ref.filled)-1]
	if ref.y[last] != caps[last] {
		return false
	}
	r := s.rowOf(last)
	for f := s.items[last].f + 1; f < s.inst.F; f++ {
		if i := s.rowItems[r*s.inst.F+f]; x[f] && i >= 0 && caps[i] > 0 {
			return false
		}
	}
	return true
}

// TestCacheSearchMatchesReference is the differential test of the pruned
// cache searches against the unpruned ones, over random byte-decoded
// cases, with every walked candidate's bound checked for soundness. It
// also asserts that the draw exercised each edge case the pruning must get
// right.
func TestCacheSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	hit := map[string]int{}
	const cases = 3000
	for k := 0; k < cases; k++ {
		data := make([]byte, 8+rng.Intn(160))
		rng.Read(data)
		c := decodeSearchCase(data)
		st := checkCacheSearch(t, c.sub, c.caps, c.x0)

		s, inst := c.sub, c.sub.inst
		if st.pairs > 0 {
			hit["bound checked"]++
		}
		if st.prunedWalks < st.refWalks {
			hit["walks pruned"]++
		}
		if st.swapped {
			hit["local search swapped"]++
		}
	columns:
		for f := 0; f < inst.F; f++ {
			for g := f + 1; g < inst.F; g++ {
				same, demanded := true, false
				for u := 0; u < inst.U; u++ {
					same = same && inst.Demand[u][f] == inst.Demand[u][g]
					demanded = demanded || inst.Demand[u][f] > 0
				}
				if same && demanded {
					hit["duplicate demand columns"]++
					break columns
				}
			}
		}
		for r := 1; r < len(s.rowDens); r++ {
			if s.rowDens[r] == s.rowDens[r-1] {
				hit["equal row densities"]++
				break
			}
		}
		if c.boundary != nil && endsOnRowBoundary(s, c.boundary, c.caps) {
			hit["budget ends on a row boundary"]++
		}
		if b := inst.Bandwidth[0]; b > 1e-12 && c.boundary != nil {
			if ref := refRoutingGivenCache(s, c.boundary, c.caps); ref.budget > 0 && ref.budget <= 1e-12 {
				hit["budget ends in (0, 1e-12]"]++
			}
		}
		for _, cp := range c.caps {
			switch {
			case math.IsNaN(cp):
				hit["cap NaN"]++
			case cp == 0:
				hit["cap 0"]++
			}
		}
		if inst.Bandwidth[0] <= 1e-12 {
			hit["B <= 1e-12"]++
		}
		switch {
		case inst.CacheCap[0] == 0:
			hit["C = 0"]++
		case inst.CacheCap[0] >= inst.F:
			hit["C >= F"]++
		}
	}
	for _, want := range []string{
		"bound checked", "walks pruned", "local search swapped",
		"duplicate demand columns", "equal row densities",
		"budget ends on a row boundary", "budget ends in (0, 1e-12]",
		"cap 0", "cap NaN", "B <= 1e-12", "C = 0", "C >= F",
	} {
		if hit[want] == 0 {
			t.Errorf("%d cases never exercised %q", cases, want)
		}
	}
	t.Logf("edge-case coverage over %d cases: %v", cases, hit)
}

// FuzzCacheSearch extends the differential and bound-soundness test to
// fuzzer-chosen cases. Run longer sessions with
// `go test -fuzz=FuzzCacheSearch ./internal/core`.
func FuzzCacheSearch(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 1, 2, 3, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := decodeSearchCase(data); c != nil {
			checkCacheSearch(t, c.sub, c.caps, c.x0)
		}
	})
}

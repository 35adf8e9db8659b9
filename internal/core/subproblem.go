// Package core implements the paper's two contributions: the distributed
// Gauss-Seidel algorithm (Algorithm 1, "DUA" — Distributed Updating
// Algorithm) that jointly optimizes caching and routing, and the LPPM
// privacy mechanism layered on the routing uploads.
//
// The package is organized bottom-up:
//
//   - subproblem.go solves the per-SBS problem P_n (eq. 10-14) by
//     Lagrangian dual decomposition: the coupling y ≤ x is relaxed with
//     multipliers μ (eq. 15-17); the caching sub-problem (eq. 18) is solved
//     by an integral greedy (Theorem 1), the routing sub-problem (eq. 20)
//     by a fractional knapsack, and μ follows the projected sub-gradient
//     update (eq. 21-23). A primal-recovery pass turns the dual iterates
//     into a feasible, high-quality (x_n, y_n) pair.
//   - coordinator.go runs Algorithm 1's synchronized sweep over SBSs,
//     optionally applying LPPM to every routing upload.
//   - exact.go provides an exhaustive P_n solver for small instances,
//     used by tests to certify the dual method's solution quality.
//
// Everything runs on the flat tensor substrate of internal/model: routing
// blocks are model.Mat (contiguous U×F), and each Subproblem owns a
// preallocated workspace so that repeated Solve calls — the access pattern
// of the Gauss-Seidel sweep — perform zero heap allocations.
package core

import (
	"fmt"
	"math"
	"sort"

	"edgecache/internal/model"
)

// SubproblemConfig tunes the dual-decomposition solver for P_n.
type SubproblemConfig struct {
	// DualIters is K, the number of sub-gradient iterations.
	DualIters int
	// Alpha is the step-size decay in η(k) = 1/(1 + α·k) (eq. 22).
	Alpha float64
	// StepScale multiplies η(k). The paper leaves the absolute step scale
	// implicit; the multipliers μ live on the scale of d̂·λ, so the scale
	// is calibrated per-SBS from the instance when left at 0 (auto).
	StepScale float64
	// MaxCandidates bounds the distinct cache vectors retained for primal
	// recovery. 0 means the default (8).
	MaxCandidates int
}

// DefaultSubproblemConfig returns the configuration used by the experiment
// harness.
func DefaultSubproblemConfig() SubproblemConfig {
	return SubproblemConfig{DualIters: 60, Alpha: 0.2}
}

func (c SubproblemConfig) withDefaults() SubproblemConfig {
	if c.DualIters <= 0 {
		c.DualIters = 60
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.2
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 8
	}
	return c
}

// Subproblem solves P_n for one SBS. It precomputes the SBS's item list
// (linked (u,f) pairs with positive demand) once and can then be solved
// repeatedly against different aggregate routings y_{-n}, which is exactly
// the access pattern of the Gauss-Seidel sweep. All scratch state lives in
// a preallocated workspace, so warm Solve calls allocate nothing.
//
// A Subproblem is NOT safe for concurrent use: Solve, SolveExact and
// RoutingGivenCache share the workspace. Give each goroutine its own
// Subproblem (the coordinator and the sim agents already do).
type Subproblem struct {
	inst *model.Instance
	n    int
	cfg  SubproblemConfig
	// items enumerates the SBS's servable (u,f) pairs, (u,f)-lexicographic.
	items []item
	// rowItems is the exact-routing oracle's fill order as a rows × F
	// table: one row per linked MU with a gain-earning item, rows by
	// density (d̂_u − d_nu) descending, ties by u ascending. Entry f is the
	// item index of (u,f), or −1 where the pair is not an item or earns no
	// gain. A density depends only on the MU, so walking rows × cached
	// contents in ascending f visits the knapsack's eligible items in
	// density order without a per-call sort and without touching uncached
	// items.
	rowItems []int
	// rowDens is row r's density, descending in r.
	rowDens []float64
	// prunable is false when the instance has too many items for
	// pruneSlack to cover the float error of the cache-search bound.
	prunable bool
	// stepScale is the resolved sub-gradient step scale.
	stepScale float64
	// ws is the reusable solve workspace.
	ws solveWorkspace
}

// item is one servable (u,f) pair from SBS n's perspective.
type item struct {
	u, f   int
	lambda float64
	// gain is (d̂_u − d_nu)·λ_uf: the cost saved by fully serving the pair
	// at the edge instead of the backhaul. The paper assumes d̂ ≫ d, so
	// gains are typically positive.
	gain float64
}

// solveWorkspace holds every buffer a Solve call touches. Sized once in
// NewSubproblem; nothing here escapes to the caller except result, whose
// ownership contract is documented on Solve.
type solveWorkspace struct {
	caps     []float64 // per-item residual capacity for this solve
	mu       []float64 // dual multipliers
	yDual    []float64 // routing iterate of the dual loop
	score    []float64 // per-content multiplier mass (len F)
	scoreIdx []int     // cachingStep sort buffer (cap F)
	heap     ratioHeap // routingStep eligible items and their ratios w/λ
	xStep    []bool    // cachingStep output (len F)
	greedyX  []bool    // greedyCache output (len F)
	workX    []bool    // localSearch mutation buffer (len F)
	cached   []int     // routingGivenCacheInto cached contents (cap F)
	yBest    []float64 // primal recovery's winning routing
	pool     candidatePool
	result   Result

	// Cache-search bound tables, (rows+1)×F: row r, entry f sums cap·gain
	// (prefGain) and cap·λ (prefLoad) over content f's items in rows < r.
	// Filled per Solve; nil when the Subproblem is not prunable.
	prefGain, prefLoad []float64
	// prune is whether this solve's cache searches may skip oracle walks.
	prune bool
	// walks counts oracle walks, for tests of the pruning.
	walks int

	scoreSorter scoreSorter
}

// NewSubproblem builds the solver for SBS n.
func NewSubproblem(inst *model.Instance, n int, cfg SubproblemConfig) (*Subproblem, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if n < 0 || n >= inst.N {
		return nil, fmt.Errorf("core: SBS index %d outside [0,%d)", n, inst.N)
	}
	cfg = cfg.withDefaults()
	s := &Subproblem{inst: inst, n: n, cfg: cfg}
	var maxDensity float64
	type muRow struct {
		density float64
		items   []int
	}
	var rows []muRow
	for u := 0; u < inst.U; u++ {
		if !inst.Links[n][u] {
			continue
		}
		density := inst.BSCost[u] - inst.EdgeCost[n][u]
		if density > maxDensity {
			maxDensity = density
		}
		row := muRow{density: density, items: make([]int, inst.F)}
		eligible := false
		for f := 0; f < inst.F; f++ {
			row.items[f] = -1
			lambda := inst.Demand[u][f]
			if lambda <= 0 {
				continue
			}
			it := item{u: u, f: f, lambda: lambda, gain: density * lambda}
			if it.gain > 0 {
				row.items[f] = len(s.items)
				eligible = true
			}
			s.items = append(s.items, it)
		}
		if eligible {
			rows = append(rows, row)
		}
	}
	// Stable on u ascending: equal densities keep item-index order.
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].density > rows[b].density })
	s.rowItems = make([]int, 0, len(rows)*inst.F)
	s.rowDens = make([]float64, 0, len(rows))
	for _, row := range rows {
		s.rowItems = append(s.rowItems, row.items...)
		s.rowDens = append(s.rowDens, row.density)
	}
	s.prunable = 4*len(s.items)+inst.F+16 <= pruneMaxTerms
	s.stepScale = cfg.StepScale
	if s.stepScale <= 0 {
		// μ must climb to the scale of the routing coefficients
		// ((d̂−d)·λ ≈ density·λ) within a handful of iterations; scale the
		// step by the largest per-unit density so convergence speed is
		// instance-independent.
		s.stepScale = maxDensity
		if s.stepScale <= 0 {
			s.stepScale = 1
		}
	}

	ni := len(s.items)
	s.ws = solveWorkspace{
		caps:     make([]float64, ni),
		mu:       make([]float64, ni),
		yDual:    make([]float64, ni),
		score:    make([]float64, inst.F),
		scoreIdx: make([]int, 0, inst.F),
		heap:     ratioHeap{idx: make([]int, 0, ni), ratio: make([]float64, ni)},
		xStep:    make([]bool, inst.F),
		greedyX:  make([]bool, inst.F),
		workX:    make([]bool, inst.F),
		cached:   make([]int, 0, inst.F),
		yBest:    make([]float64, ni),
		result:   Result{Cache: make([]bool, inst.F), Routing: model.NewMat(inst.U, inst.F)},
	}
	s.ws.pool = newCandidatePool(cfg.MaxCandidates, inst.F)
	if s.prunable {
		size := (len(rows) + 1) * inst.F
		tables := make([]float64, 2*size)
		s.ws.prefGain, s.ws.prefLoad = tables[:size:size], tables[size:]
	}
	return s, nil
}

// Result is the outcome of one P_n solve.
type Result struct {
	// Cache is x_n (length F) and Routing y_n (U×F).
	Cache []bool
	// Routing is the raw pre-LPPM best response: per-MU routing shares
	// reveal which users requested what (§IV), so privflow requires every
	// egress of this field to pass an LPPM sanitizer first.
	//
	//edgecache:private pre-LPPM per-MU routing shares
	Routing model.Mat
	// Gain is the serving-cost reduction Σ (d̂−d)·λ·y achieved versus
	// routing nothing; the coordinator uses it for reporting only.
	Gain float64
	// DualIters is the number of sub-gradient iterations executed.
	DualIters int
}

// Solve computes SBS n's best response to the aggregate routing yMinus
// (U×F, the portion of each demand already served by the other SBSs). The
// returned policy satisfies the cache capacity, bandwidth, box and
// no-overserve constraints, and routing only touches cached contents.
//
// Workspace-reuse contract: the returned Result (Cache and Routing
// included) is owned by the Subproblem and is overwritten by the next
// Solve/SolveExact call. Callers must copy anything they retain —
// RoutingPolicy.SetSBS and CachingPolicy.SetRow both copy.
//
//edgecache:noalloc
func (s *Subproblem) Solve(yMinus model.Mat) (*Result, error) {
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return nil, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}

	ws := &s.ws
	// Residual capacity per item: y_nuf ≤ clamp(1 − y_{-n,uf}, 0, 1),
	// which enforces the coupling constraint (4) inside the block update.
	caps := ws.caps
	for i, it := range s.items {
		caps[i] = clamp01(1 - yMinus.At(it.u, it.f))
	}

	// Dual loop (eq. 21-23).
	mu := ws.mu // μ_uf ≥ 0, one per servable pair
	for i := range mu {
		mu[i] = 0
	}
	y := ws.yDual
	scoreBuf := ws.score
	ws.pool.reset()
	iters := 0
	for k := 0; k < s.cfg.DualIters; k++ {
		iters++
		// Caching sub-problem (eq. 18): maximize Σ_f x_f·Σ_u μ_uf under
		// Σ x_f ≤ C_n — integral greedy over per-content scores.
		for f := range scoreBuf {
			scoreBuf[f] = 0
		}
		for i, it := range s.items {
			scoreBuf[it.f] += mu[i]
		}
		x := s.cachingStep(scoreBuf)
		ws.pool.add(x)

		// Routing sub-problem (eq. 20): fractional knapsack with
		// coefficients w = (d−d̂)·λ + μ over the bandwidth budget.
		s.routingStep(y, mu, caps)

		// Projected sub-gradient update μ ← [μ + η·(y − x)]⁺ (eq. 21-23).
		eta := s.stepScale / (1 + s.cfg.Alpha*float64(k))
		done := true
		for i, it := range s.items {
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
			// The relaxed constraint y ≤ x holds, so the current primal
			// pair is feasible; further dual iterations cannot improve it.
			break
		}
	}

	// Primal recovery: for every distinct cache vector seen, compute the
	// exact optimal routing given that cache and keep the best.
	best := s.recoverPrimal(caps)
	best.DualIters = iters
	return best, nil
}

// Multipliers returns a copy of the dual multipliers μ as left by the most
// recent Solve (zeros before the first). One entry per servable item, in
// item order. Checkpoints capture this for workspace completeness and as a
// warm-start hook; Solve itself cold-starts μ, so restoration does not
// alter the trajectory.
//
// The multipliers are derived from raw per-item demand pressure, so they
// are a privacy source: privflow flags any egress that has not passed an
// LPPM sanitizer.
//
//edgecache:private raw dual multipliers derived from per-MU demand
func (s *Subproblem) Multipliers() []float64 {
	return append([]float64(nil), s.ws.mu...)
}

// RestoreMultipliers reloads a μ vector captured by Multipliers.
func (s *Subproblem) RestoreMultipliers(mu []float64) error {
	if len(mu) != len(s.ws.mu) {
		return fmt.Errorf("core: SBS %d multiplier vector has %d entries, want %d", s.n, len(mu), len(s.ws.mu))
	}
	copy(s.ws.mu, mu)
	return nil
}

// cachingStep solves eq. 18: pick the C_n contents with the largest
// positive multiplier mass. Ties at zero are left uncached (they earn
// nothing in the dual); primal recovery fills free capacity greedily. The
// returned vector is the workspace's xStep buffer.
func (s *Subproblem) cachingStep(score []float64) []bool {
	ws := &s.ws
	x := ws.xStep
	for f := range x {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	if capN == 0 {
		return x
	}
	idx := ws.scoreIdx[:0]
	for f, sc := range score {
		if sc > 0 {
			idx = append(idx, f)
		}
	}
	ws.scoreSorter.idx = idx
	ws.scoreSorter.score = score
	sort.Sort(&ws.scoreSorter)
	if len(idx) > capN {
		idx = idx[:capN]
	}
	for _, f := range idx {
		x[f] = true
	}
	return x
}

// routingStep solves eq. 20 in place: minimize Σ (w_i)·y_i with
// w_i = −gain_i + μ_i, subject to Σ λ_i·y_i ≤ B_n and 0 ≤ y_i ≤ caps_i.
// Only negative-coefficient items are worth serving; the optimal solution
// of this LP fills them in increasing w/λ order (fractional knapsack). The
// budget runs out after a handful of items, so the order is drawn lazily
// from a min-heap instead of sorting every eligible item.
func (s *Subproblem) routingStep(y, mu, caps []float64) {
	h := &s.ws.heap
	eligible := h.idx[:0]
	for i := range s.items {
		y[i] = 0
		w := -s.items[i].gain + mu[i]
		if w < 0 && caps[i] > 0 {
			h.ratio[i] = w / s.items[i].lambda
			eligible = append(eligible, i)
		}
	}
	h.idx = eligible
	h.init()
	budget := s.inst.Bandwidth[s.n]
	for len(h.idx) > 0 {
		if budget <= 0 {
			break
		}
		i := h.pop()
		it := s.items[i]
		// caps[i] > 0 and budget/λ > 0 here, so this compare is math.Min
		// bit for bit.
		amount := caps[i]
		if q := budget / it.lambda; q < amount {
			amount = q
		}
		y[i] = amount
		budget -= amount * it.lambda
	}
}

// routingGivenCacheInto computes the exact optimal routing for a fixed
// cache vector x into the caller-supplied per-item buffer y and returns
// the gain. A nil y computes the gain alone, which is all the cache
// searches need. The knapsack's fill order is static (density descending),
// so a call walks the rowItems rows × the cached contents: its cost is
// O(linked MUs × cached contents), with no sort and no allocation.
//
// stop is the row in which the budget ran out, or the row count when it
// never did (a budget of at most 1e-12 included); the cache searches
// bound their candidates from it (see cacheBound).
func (s *Subproblem) routingGivenCacheInto(x []bool, caps, y []float64) (gain float64, stop int) {
	s.ws.walks++
	for i := range y {
		y[i] = 0
	}
	stop = len(s.rowDens)
	budget := s.inst.Bandwidth[s.n]
	if budget <= 1e-12 {
		return 0, stop
	}
	cached := s.ws.cached[:0]
	for f, in := range x {
		if in {
			cached = append(cached, f)
		}
	}
	for r := range s.rowDens {
		row := s.rowItems[r*s.inst.F : (r+1)*s.inst.F]
		for _, f := range cached {
			i := row[f]
			if i < 0 || caps[i] <= 0 {
				continue
			}
			it := s.items[i]
			// caps[i] is positive or NaN and budget/λ positive; the compare
			// keeps math.Min's result bit for bit, NaN included.
			amount := caps[i]
			if q := budget / it.lambda; q < amount {
				amount = q
			}
			if y != nil {
				y[i] = amount
			}
			budget -= amount * it.lambda
			gain += amount * it.gain
			if budget <= 1e-12 {
				return gain, r
			}
		}
	}
	return gain, stop
}

// RoutingGivenCache computes the exact optimal routing for a fixed cache
// vector x: a fractional knapsack over the cached, linked pairs with
// per-item capacity caps. It returns a fresh flat item routing and the
// total gain. This is both the primal-recovery engine and, composed with a
// cache search, an independent P_n solver.
func (s *Subproblem) RoutingGivenCache(x []bool, caps []float64) ([]float64, float64) {
	y := make([]float64, len(s.items))
	gain, _ := s.routingGivenCacheInto(x, caps, y)
	return y, gain
}

// BestRoutingForCache computes the optimal routing block (U×F) for a fixed
// cache vector against the aggregate routing of the other SBSs. Baselines
// use it to route on externally chosen caches (e.g. LRFU's) with exactly
// the same knapsack the distributed algorithm uses, so cost comparisons
// isolate the caching decision.
func (s *Subproblem) BestRoutingForCache(x []bool, yMinus model.Mat) (model.Mat, error) {
	if len(x) != s.inst.F {
		return model.Mat{}, fmt.Errorf("core: cache vector has %d entries, want F=%d", len(x), s.inst.F)
	}
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return model.Mat{}, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}
	caps := make([]float64, len(s.items))
	for i, it := range s.items {
		caps[i] = clamp01(1 - yMinus.At(it.u, it.f))
	}
	y, _ := s.RoutingGivenCache(x, caps)
	block := model.NewMat(s.inst.U, s.inst.F)
	for i, it := range s.items {
		block.Set(it.u, it.f, y[i])
	}
	return block, nil
}

// recoverPrimal evaluates every candidate cache vector (plus a greedy
// marginal-gain candidate) with exact routing and returns the best
// feasible pair as a Result in matrix form. The Result is workspace-owned.
func (s *Subproblem) recoverPrimal(caps []float64) *Result {
	ws := &s.ws
	ws.prune = s.fillBoundTables(caps)
	// The greedy candidate is evaluated unconditionally: it must not be
	// crowded out when the dual loop already produced MaxCandidates
	// distinct vectors. Candidates are compared on gain alone; only the
	// winner's routing is materialized.
	bestX := s.greedyCache(caps)
	bestGain, _ := s.routingGivenCacheInto(bestX, caps, nil)
	for ci := 0; ci < ws.pool.n; ci++ {
		x := ws.pool.list[ci]
		if gain, _ := s.routingGivenCacheInto(x, caps, nil); gain > bestGain {
			bestGain, bestX = gain, x
		}
	}
	s.localSearch(bestX, bestGain, caps)

	best := ws.yBest
	res := &ws.result
	res.Gain, _ = s.routingGivenCacheInto(bestX, caps, best)
	copy(res.Cache, bestX)
	res.Routing.Zero()
	for i, it := range s.items {
		res.Routing.Set(it.u, it.f, best[i])
	}
	res.DualIters = 0
	return res
}

// localSearch improves a cache vector by 1-swap exchanges (replace one
// cached content with one uncached content) until no swap improves the
// exact routing gain. The greedy candidate is near-optimal but not optimal
// (submodular greedy); swaps close the residual gap on the instances this
// repository targets. x is improved in place; gain is its routing gain.
// Swaps are probed on gain alone, and only those whose cacheBound could
// beat the current gain are walked.
func (s *Subproblem) localSearch(x []bool, gain float64, caps []float64) {
	const maxPasses = 4
	work := s.ws.workX
	copy(work, x)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for out := 0; out < s.inst.F; out++ {
			if !work[out] {
				continue
			}
			// Every swap of out is the base work − out plus one content.
			work[out] = false
			var b cacheBound
			if s.ws.prune {
				_, stop := s.routingGivenCacheInto(work, caps, nil)
				b = s.baseBound(work, stop)
			}
			threshold := gain + 1e-9
			swapped := false
			for in := 0; in < s.inst.F; in++ {
				if work[in] || in == out || !b.mayBeat(in, threshold) {
					continue
				}
				work[in] = true
				if candGain, _ := s.routingGivenCacheInto(work, caps, nil); candGain > threshold {
					gain = candGain
					copy(x, work)
					improved, swapped = true, true
					break // 'out' is no longer cached; rescan
				}
				work[in] = false
			}
			if !swapped {
				work[out] = true
			}
		}
		if !improved {
			break
		}
	}
}

// greedyCache builds a cache vector by repeatedly adding the content with
// the largest marginal routing gain (a submodular-style greedy). It is the
// fallback candidate that keeps primal recovery strong when the dual
// multipliers have not yet separated the useful contents. Only contents
// whose cacheBound could beat the round's running best are walked. The
// returned vector is the workspace's greedyX buffer.
func (s *Subproblem) greedyCache(caps []float64) []bool {
	ws := &s.ws
	x := ws.greedyX
	for f := range x {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	if capN == 0 || len(s.items) == 0 {
		return x
	}
	baseGain, stop := s.routingGivenCacheInto(x, caps, nil)
	for picked := 0; picked < capN; picked++ {
		b := s.baseBound(x, stop)
		bestF, bestGain, bestStop := -1, baseGain, stop
		for f := 0; f < s.inst.F; f++ {
			if x[f] || !b.mayBeat(f, bestGain+1e-12) {
				continue
			}
			x[f] = true
			gain, fStop := s.routingGivenCacheInto(x, caps, nil)
			x[f] = false
			if gain > bestGain+1e-12 {
				bestF, bestGain, bestStop = f, gain, fStop
			}
		}
		if bestF == -1 {
			break // no content adds gain (bandwidth exhausted or no demand)
		}
		// The adopting walk was the walk of the next round's base.
		x[bestF] = true
		baseGain, stop = bestGain, bestStop
	}
	return x
}

// Cache-search pruning. Both cache searches probe candidates T = base ∪ {f}
// and adopt one only if its oracle gain beats a threshold. One walk of the
// base certifies an upper bound on every candidate's gain, so a candidate
// whose bound cannot beat the threshold is skipped unwalked. A skipped
// candidate could not have been adopted, so the searches adopt exactly
// what walking every candidate would.
//
// The bound is LP weak duality for the knapsack over T. Rows are sorted by
// density d descending, and an item's gain is d·λ. Take any row r and
// ρ = rowDens[r] (ρ = 0 for r = rows): rows above r have d ≥ ρ and rows
// from r on have d ≤ ρ. So every fill 0 ≤ a ≤ cap with Σ a·λ ≤ B has
//
//	Σ a·d·λ = Σ a·(d−ρ)·λ + ρ·Σ a·λ ≤ Σ_{T, rows<r} cap·(d−ρ)·λ + ρ·B
//	        = B·ρ + Σ_{g∈T} (prefGain[r][g] − ρ·prefLoad[r][g]).
//
// This holds for every r. The row where the base walk's budget ran out
// makes it the base's own gain plus at most what f's items above ρ add.
//
// pruneSlack covers the float error on both sides, relative to
// M = B·ρ + Σ_{g∈T} (prefGain[r][g] + ρ·prefLoad[r][g]), which dominates
// every term. With γ(n) = n·u/(1−n·u) and u = 2⁻⁵³: a walk of k ≤ items
// fills overspends B by at most γ(2k+3) and sums its gain within γ(k+2);
// fl(d·λ) is within one rounding of d·λ; the prefix tables and the
// bound's own sum are within γ(rows+|T|+6), with rows ≤ items and |T| ≤ F.
// So the walked gain is at most the float bound + γ(4·items+F+16)·M.
// prunable requires 4·items+F+16 ≤ pruneMaxTerms, which keeps that below
// 4.7e-10·M; the rest of pruneSlack absorbs the rounding of M and of the
// final add.
const (
	pruneSlack    = 1e-9
	pruneMaxTerms = 1 << 22
)

// fillBoundTables fills prefGain and prefLoad from this solve's caps, with
// the oracle's own filter: a cap ≤ 0 adds nothing. It reports whether the
// cache searches may prune: not on an unprunable Subproblem, nor when a
// cap is NaN, which the walk propagates but the bound does not.
func (s *Subproblem) fillBoundTables(caps []float64) bool {
	if !s.prunable {
		return false
	}
	nf := s.inst.F
	pg, pl := s.ws.prefGain, s.ws.prefLoad
	for r := range s.rowDens {
		row := s.rowItems[r*nf : (r+1)*nf]
		prevG, prevL := pg[r*nf:(r+1)*nf], pl[r*nf:(r+1)*nf]
		nextG, nextL := pg[(r+1)*nf:(r+2)*nf], pl[(r+1)*nf:(r+2)*nf]
		for f, i := range row {
			g, l := prevG[f], prevL[f]
			if i >= 0 {
				c := caps[i]
				if math.IsNaN(c) {
					return false
				}
				if c > 0 {
					g += c * s.items[i].gain
					l += c * s.items[i].lambda
				}
			}
			nextG[f], nextL[f] = g, l
		}
	}
	return true
}

// cacheBound is one base set's part of the bound, which extends to
// base ∪ {f} for any content f ∉ base in O(1). The zero value prunes
// nothing.
type cacheBound struct {
	on      bool
	pg, pl  []float64 // row r of prefGain and prefLoad
	rho     float64
	ub, mag float64 // the base's terms of the bound and of M
}

// baseBound sums the bound's base terms for base set x, whose walk stopped
// at row stop.
func (s *Subproblem) baseBound(x []bool, stop int) cacheBound {
	if !s.ws.prune {
		return cacheBound{}
	}
	nf := s.inst.F
	b := cacheBound{on: true, pg: s.ws.prefGain[stop*nf : (stop+1)*nf], pl: s.ws.prefLoad[stop*nf : (stop+1)*nf]}
	if stop < len(s.rowDens) {
		b.rho = s.rowDens[stop]
	}
	b.ub = s.inst.Bandwidth[s.n] * b.rho
	b.mag = b.ub
	for g, in := range x {
		if in {
			b.ub += b.pg[g] - b.rho*b.pl[g]
			b.mag += b.pg[g] + b.rho*b.pl[g]
		}
	}
	return b
}

// bound is the slack-inflated upper bound on the oracle gain of base ∪ {f}.
func (b *cacheBound) bound(f int) float64 {
	ub := b.ub + (b.pg[f] - b.rho*b.pl[f])
	mag := b.mag + (b.pg[f] + b.rho*b.pl[f])
	return ub + pruneSlack*mag
}

// mayBeat reports whether base ∪ {f} could have an oracle gain above t: it
// is false only when the bound is at most t, so a NaN bound is walked.
func (b *cacheBound) mayBeat(f int, t float64) bool {
	return !b.on || !(b.bound(f) <= t)
}

// candidatePool deduplicates cache vectors up to a size cap, with every
// slot preallocated so add never touches the heap.
type candidatePool struct {
	max  int
	n    int
	list [][]bool
}

func newCandidatePool(max, f int) candidatePool {
	p := candidatePool{max: max, list: make([][]bool, max)}
	for i := range p.list {
		p.list[i] = make([]bool, f)
	}
	return p
}

func (c *candidatePool) reset() { c.n = 0 }

func (c *candidatePool) add(x []bool) {
	if c.n >= c.max {
		return
	}
	for i := 0; i < c.n; i++ {
		if boolsEqual(c.list[i], x) {
			return
		}
	}
	copy(c.list[c.n], x)
	c.n++
}

func boolsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scoreSorter orders content indices by score descending, ties by index.
type scoreSorter struct {
	idx   []int
	score []float64
}

func (s *scoreSorter) Len() int { return len(s.idx) }
func (s *scoreSorter) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if s.score[ia] != s.score[ib] { //edgecache:lint-ignore floateq sort comparator must be a strict weak order; epsilon ties would break transitivity
		return s.score[ia] > s.score[ib]
	}
	return ia < ib
}
func (s *scoreSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// ratioHeap is an in-place binary min-heap of item indices under the
// strict total order (ratio ascending, then index ascending): popping it
// empty yields exactly the sorted order, so a fill that stops early sees
// the same prefix a full sort would give.
type ratioHeap struct {
	idx   []int
	ratio []float64
}

func (h *ratioHeap) less(a, b int) bool {
	ia, ib := h.idx[a], h.idx[b]
	if h.ratio[ia] != h.ratio[ib] { //edgecache:lint-ignore floateq heap order must be a strict total order; epsilon ties would break transitivity
		return h.ratio[ia] < h.ratio[ib]
	}
	return ia < ib
}

func (h *ratioHeap) down(i int) {
	n := len(h.idx)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}

func (h *ratioHeap) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the smallest item index.
func (h *ratioHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	return top
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

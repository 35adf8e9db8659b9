package core

import (
	"fmt"
	"math"

	"edgecache/internal/model"
)

// This file is the pluggable sweep-engine layer. Algorithm 1's outer loop
// — cost evaluation, best-solution tracking, the γ stop rule, checkpoint
// cadence and resume — is identical no matter how the per-SBS sub-problems
// are ordered within a sweep, so it lives once in Driver. What varies is
// the update discipline inside one sweep, and that is the SweepEngine
// interface: the sequential Gauss-Seidel sweep (the paper's Algorithm 1),
// the sequential reference Jacobi round (§VII), and the goroutine-sharded
// parallel Jacobi engine that computes the identical trajectory on a
// worker pool.

// EngineKind and its values are re-exported from internal/model, where the
// checkpoint codec serializes them.
type EngineKind = model.EngineKind

// Engine kinds accepted by Config.Engine.
const (
	EngineGaussSeidel    = model.EngineGaussSeidel
	EngineJacobi         = model.EngineJacobi
	EngineParallelJacobi = model.EngineParallelJacobi
)

// SweepState is everything a run carries between sweeps — the live
// counterpart of a model.Checkpoint. NewSweepState builds the
// iteration-zero state; NewCheckpoint and RestoreSweepState convert it to
// and from a snapshot.
type SweepState struct {
	// Order is the SBS update order of the run. Gauss-Seidel honours it;
	// the Jacobi engines require the identity order (a Jacobi round has no
	// update order — every SBS sees the same pre-round state).
	Order []int
	// Sweep and Phase are the NEXT point to execute: order position Phase
	// of sweep Sweep.
	Sweep, Phase int
	// X and Y are the BS's view of the policies (post-LPPM when privacy is
	// on).
	X *model.CachingPolicy
	Y *model.RoutingPolicy
	// Tracker maintains the masked aggregate Σ_n y·l incrementally: each
	// Gauss-Seidel phase derives y_{-n} in O(U·F), and the Jacobi engines
	// rebuild it once per round in O(N·U·F) — replacing the per-phase
	// O(N·U·F) AggregateExcept rebuild the seed implementation performed.
	Tracker *model.AggregateTracker
	// History is the per-sweep cost trail; PrevCost the γ reference.
	History  []float64
	PrevCost float64
	// Best is the cheapest solution seen so far.
	Best *model.Solution
}

// NewSweepState returns the all-zero initial state for one run over inst.
// The order slice is retained, not copied.
func NewSweepState(inst *model.Instance, order []int) *SweepState {
	return &SweepState{
		Order:    order,
		X:        model.NewCachingPolicy(inst),
		Y:        model.NewRoutingPolicy(inst),
		Tracker:  model.NewAggregateTracker(inst),
		PrevCost: math.Inf(1),
	}
}

// NewCheckpoint captures st as resume point (sweep, phase) of a run over
// inst that engine kind produced; history is the cost trail so far. Every
// slice is cloned, so the snapshot stays valid as the run goes on. The
// deployment-specific sections — the LPPM noise position and the BS's
// per-SBS health — are left for the caller to fill in.
func NewCheckpoint(inst *model.Instance, kind EngineKind, st *SweepState, history []float64, sweep, phase int) *model.Checkpoint {
	return &model.Checkpoint{
		Sweep:      sweep,
		Phase:      phase,
		Engine:     kind,
		Order:      append([]int(nil), st.Order...),
		Caching:    st.X.Clone(),
		Routing:    st.Y.Clone(),
		Aggregate:  st.Tracker.Aggregate().Clone(),
		History:    append([]float64(nil), history...),
		PrevCost:   st.PrevCost,
		Best:       st.Best.Clone(),
		InstanceFP: inst.Fingerprint(),
	}
}

// RestoreSweepState rebuilds the live sweep state a snapshot records,
// cloning every slice so the run never writes into ck. The caller has
// validated ck against inst; repositioning the noise stream and restoring
// health records are its business too.
func RestoreSweepState(inst *model.Instance, ck *model.Checkpoint) *SweepState {
	st := &SweepState{
		Order:    append([]int(nil), ck.Order...),
		Sweep:    ck.Sweep,
		Phase:    ck.Phase,
		X:        ck.Caching.Clone(),
		Y:        ck.Routing.Clone(),
		Tracker:  model.NewAggregateTracker(inst),
		History:  append([]float64(nil), ck.History...),
		PrevCost: ck.PrevCost,
		Best:     ck.Best.Clone(),
	}
	st.Tracker.Restore(ck.Aggregate)
	return st
}

// identityOrder returns 0..n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// SweepEngine executes one sweep (Gauss-Seidel) or one round (Jacobi) of
// the distributed updating algorithm. Implementations mutate st in place:
// after Sweep returns, st.X and st.Y hold the post-sweep policies and
// st.Tracker the matching aggregate, bit-identical to what a full
// AggregateInto rebuild of st.Y would produce for the Jacobi engines, or
// the incremental running sums for Gauss-Seidel.
type SweepEngine interface {
	// Kind identifies the engine; checkpoints record it and resume
	// requires a same-family engine.
	Kind() model.EngineKind
	// Sweep runs order positions [first, len(st.Order)) of sweep `sweep`.
	// first is nonzero only when resuming mid-sweep; engines that cannot
	// restart mid-sweep (the Jacobi family, whose rounds are atomic)
	// return an error for first != 0.
	//
	// phaseDone, when non-nil, is invoked after every completed phase
	// except the sweep's last, with the next order position to execute —
	// the mid-sweep checkpoint hook. Engines without mid-sweep resume
	// points never call it.
	Sweep(st *SweepState, sweep, first int, phaseDone func(nextPhase int) error) error
	// Close releases engine resources (the parallel engine's worker
	// pool). It is idempotent; the sequential engines are no-ops.
	Close()
}

// workCounter is the optional engine face of the solve accounting:
// engines expose a cumulative solve counter and the Driver turns it into
// per-sweep deltas in RunResult.Work. Engines without the accounting (the
// sim BS sweeper) simply don't implement it.
type workCounter interface {
	// solveCount returns the engine-lifetime total of sub-problems solved.
	solveCount() uint64
}

// Driver is the shared outer loop of Algorithm 1: it alternates
// engine sweeps with cost evaluation, best tracking, the γ stop rule and
// checkpoint capture. The in-process Coordinator and the message-passing
// BS agent (internal/sim) both run this exact loop, which is what keeps
// the two deployments bit-for-bit equivalent.
type Driver struct {
	// Inst is the problem instance.
	Inst *model.Instance
	// Gamma is the relative-improvement stop threshold; MaxSweeps the
	// sweep budget. Both must be set (Config.withDefaults does).
	Gamma     float64
	MaxSweeps int
	// Checkpoint, when non-nil, turns capture on: a snapshot at every
	// sweep boundary the run continues past, plus one per phase with
	// EachPhase. Snapshot must then be set and is called with the resume
	// point (sweep, phase) to capture.
	Checkpoint *CheckpointConfig
	Snapshot   func(st *SweepState, res *RunResult, sweep, phase int) error
	// HoldConvergence, when non-nil, is consulted after every sweep; a
	// true return vetoes the γ stop for that sweep. The sim BS agent uses
	// it when faults corrupted the sweep's cost signal (missed uploads,
	// quarantined SBSs).
	HoldConvergence func() bool
}

// Run drives the engine from st (iteration zero or a resumed snapshot) to
// completion.
//
// The BS evaluates the uploaded aggregate after every sweep anyway
// (Algorithm 1's stop rule needs f(y(τ))), so it retains the cheapest
// policy seen and returns that. Without LPPM the sweep costs are
// non-increasing and this is exactly the final sweep; with LPPM per-sweep
// noise redraws can drift the trajectory, and keeping the best sweep is
// the natural BS-side behaviour.
func (d *Driver) Run(eng SweepEngine, st *SweepState) (*RunResult, error) {
	res := &RunResult{History: st.History, Sweeps: len(st.History)}
	var phaseDone func(int) error
	wc, _ := eng.(workCounter)
	var prevSolves uint64
	if wc != nil {
		prevSolves = wc.solveCount()
	}

	for sweep := st.Sweep; sweep < d.MaxSweeps; sweep++ {
		first := 0
		if sweep == st.Sweep {
			first = st.Phase
		}
		if d.Checkpoint != nil && d.Checkpoint.EachPhase {
			s := sweep // capture per iteration for the closure
			phaseDone = func(nextPhase int) error { return d.Snapshot(st, res, s, nextPhase) }
		}
		if err := eng.Sweep(st, sweep, first, phaseDone); err != nil {
			return nil, err
		}
		if wc != nil {
			solves := wc.solveCount()
			res.Work = append(res.Work, SweepWork{Solves: int(solves - prevSolves)})
			prevSolves = solves
		}
		cost := model.TotalServingCostFromAggregate(d.Inst, st.Y, st.Tracker.Aggregate())
		res.History = append(res.History, cost.Total)
		res.Sweeps = sweep + 1
		if st.Best == nil || cost.Total < st.Best.Cost.Total {
			st.Best = &model.Solution{Caching: st.X.Clone(), Routing: st.Y.Clone(), Cost: cost}
		}

		// Algorithm 1's stop rule: relative improvement below γ. The
		// absolute value guards against noise-induced oscillation under
		// LPPM (Theorem 3 guarantees convergence of the underlying
		// sequence, but individual sweeps can regress slightly).
		hold := d.HoldConvergence != nil && d.HoldConvergence()
		if !hold && cost.Total > 0 && math.Abs(st.PrevCost-cost.Total)/cost.Total <= d.Gamma {
			res.Converged = true
			st.PrevCost = cost.Total
			break
		}
		st.PrevCost = cost.Total
		if d.Checkpoint != nil {
			if err := d.Snapshot(st, res, sweep+1, 0); err != nil {
				return nil, err
			}
		}
	}

	if st.Best == nil { // MaxSweeps == 0 cannot happen after withDefaults, but stay safe
		st.Best = &model.Solution{Caching: st.X, Routing: st.Y, Cost: model.TotalServingCost(d.Inst, st.Y)}
	}
	res.Solution = st.Best
	return res, nil
}

// gsEngine is the paper's Algorithm 1 update discipline: SBSs update one
// at a time in st.Order, each solving against the aggregate that already
// includes every earlier update of the same sweep.
type gsEngine struct {
	c      *Coordinator
	yMinus model.Mat
	// solves is the engine-lifetime solve count the Driver slices into
	// per-sweep deltas.
	solves uint64
}

func newGSEngine(c *Coordinator) *gsEngine {
	return &gsEngine{c: c, yMinus: c.inst.NewUFMat()}
}

func (e *gsEngine) Kind() model.EngineKind { return model.EngineGaussSeidel }
func (e *gsEngine) Close()                 {}

func (e *gsEngine) solveCount() uint64 { return e.solves }

func (e *gsEngine) Sweep(st *SweepState, sweep, first int, phaseDone func(int) error) error {
	c, inst := e.c, e.c.inst
	for pi := first; pi < len(st.Order); pi++ {
		n := st.Order[pi]
		// The BS broadcasts the aggregate routing; SBS n subtracts its
		// own last upload to obtain y_{-n} (eq. 25).
		st.Tracker.YMinusInto(inst, st.Y, n, e.yMinus)
		if c.cfg.BroadcastTap != nil {
			c.cfg.BroadcastTap(sweep, n, e.yMinus.Rows())
		}
		sub, err := c.subs[n].Solve(e.yMinus)
		if err != nil {
			return err
		}
		e.solves++
		upload := sub.Routing
		if c.lppm != nil {
			upload, err = c.lppm.PerturbSBS(n, sub.Routing)
			if err != nil {
				return err
			}
		}
		if c.cfg.UploadTap != nil {
			c.cfg.UploadTap(sweep, n, sub.Routing.Rows(), upload.Rows())
		}
		st.X.SetRow(n, sub.Cache)
		st.Tracker.Install(inst, st.Y, n, e.yMinus, upload)
		if phaseDone != nil && pi+1 < len(st.Order) {
			if err := phaseDone(pi + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// newEngine builds the engine selected by cfg.Engine for this
// coordinator.
func (c *Coordinator) newEngine() (SweepEngine, error) {
	switch c.cfg.Engine {
	case model.EngineGaussSeidel:
		return newGSEngine(c), nil
	case model.EngineJacobi:
		return newJacobiEngine(c), nil
	case model.EngineParallelJacobi:
		return newParallelJacobiEngine(c, c.cfg.Workers), nil
	default:
		return nil, fmt.Errorf("core: unknown engine kind %v", c.cfg.Engine)
	}
}

// runEngine wires the coordinator's configuration into the shared driver
// and runs eng from st.
func (c *Coordinator) runEngine(eng SweepEngine, st *SweepState) (*RunResult, error) {
	d := &Driver{
		Inst:      c.inst,
		Gamma:     c.cfg.Gamma,
		MaxSweeps: c.cfg.MaxSweeps,
	}
	if ckpt := c.cfg.Checkpoint; ckpt != nil {
		d.Checkpoint = ckpt
		kind := eng.Kind()
		d.Snapshot = func(st *SweepState, res *RunResult, sweep, phase int) error {
			return c.snapshot(ckpt.Sink, kind, st, res, sweep, phase)
		}
	}
	return d.Run(eng, st)
}

package core

import (
	"fmt"

	"edgecache/internal/model"
)

// jacobiEngine is the sequential reference implementation of the
// parallel-update variant the paper leaves as future work (§VII): instead
// of the Gauss-Seidel sweep, every SBS of a round solves its sub-problem
// against the same pre-round aggregate — the classic Jacobi update, which
// models SBSs that compute concurrently on possibly-stale broadcast state.
//
// Because two SBSs can simultaneously claim the same residual demand, the
// raw Jacobi round may violate the no-overserve constraint (4). The BS
// repairs each round: wherever the aggregate exceeds one, every SBS's
// share of that demand is scaled down proportionally (the BS already owns
// the aggregate, so the repair needs no extra information exchange). The
// repaired policy is what the BS evaluates and finally returns, so every
// result is feasible.
//
// The per-SBS y_{-n} comes from the aggregate tracker in O(U·F) (the
// round's aggregate minus SBS n's own pre-round block), and the tracker is
// rebuilt once per round in O(N·U·F) — replacing the seed implementation's
// per-phase AggregateExcept recompute, which cost O(N·U·F) for every SBS
// of every round. The rebuild and the repair both accumulate each (u,f)
// entry over n in ascending order, so the parallel engine, which shards
// the same loops by row ranges, produces bit-identical aggregates.
type jacobiEngine struct {
	c      *Coordinator
	yMinus model.Mat
	// next receives the round's uploads while st.Y still holds the
	// pre-round policy every SBS observes; the two swap at the end of the
	// round, recycling the old tensor as the next round's buffer.
	next *model.RoutingPolicy
	// solves is the engine-lifetime solve count.
	solves uint64
}

func newJacobiEngine(c *Coordinator) *jacobiEngine {
	return &jacobiEngine{
		c:      c,
		yMinus: c.inst.NewUFMat(),
		next:   model.NewRoutingPolicy(c.inst),
	}
}

func (e *jacobiEngine) Kind() model.EngineKind { return model.EngineJacobi }
func (e *jacobiEngine) Close()                 {}

func (e *jacobiEngine) solveCount() uint64 { return e.solves }

func (e *jacobiEngine) Sweep(st *SweepState, sweep, first int, phaseDone func(int) error) error {
	if first != 0 {
		return fmt.Errorf("core: a jacobi round is atomic; cannot resume at phase %d", first)
	}
	c, inst := e.c, e.c.inst
	// All SBSs observe the same pre-round policy (stale state). Every
	// block of next is overwritten below, so the swapped-in buffer needs
	// no clearing.
	for n := 0; n < inst.N; n++ {
		st.Tracker.YMinusInto(inst, st.Y, n, e.yMinus)
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
		st.X.SetRow(n, sub.Cache)
		e.next.SetSBS(n, upload)
	}
	st.Y.Swap(e.next)
	st.Tracker.RebuildRows(inst, st.Y, 0, inst.U)
	st.Tracker.RepairOverserveRows(inst, st.Y, 0, inst.U)
	return nil
}

// repairOverserve rescales routing proportionally wherever the aggregate
// Σ_n y_nuf·l_nu exceeds one, restoring constraint (4). Scaling down never
// violates bandwidth, box or cache constraints.
//
// The engines repair through AggregateTracker.RepairOverserveRows, which
// additionally keeps the running aggregate in sync; this standalone form
// is the reference definition the tracker path is tested against.
func repairOverserve(inst *model.Instance, y *model.RoutingPolicy) {
	agg := y.Aggregate(inst)
	for u := 0; u < inst.U; u++ {
		row := agg.Row(u)
		for f := range row {
			if row[f] <= 1+1e-12 {
				continue
			}
			factor := 1 / row[f]
			for n := 0; n < inst.N; n++ {
				if inst.Links[n][u] {
					y.Set(n, u, f, y.At(n, u, f)*factor)
				}
			}
		}
	}
}

package main

import (
	"fmt"
	"math"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

// The replay engine is the traced run's seam into the in-process layers,
// which accept no wrapper: a benchmark-owned core.SweepEngine that makes
// Algorithm 1's calls through the layers' public functions, one span per
// call. core.Driver runs it exactly as it runs the program's own
// Gauss-Seidel engine, so its History and final policy must equal the
// untraced run's bit for bit; checkReplay rejects the numbers otherwise.

// Algorithm 1's stop rule as core.Config and sim.BSConfig default it.
const (
	defaultGamma     = 1e-6
	defaultMaxSweeps = 50
)

type replayEngine struct {
	inst   *model.Instance
	subs   []*core.Subproblem
	lppm   []*core.LPPM // per SBS, as each sim SBS agent owns one; nil without privacy
	yMinus model.Mat
	tr     *tracer
	root   int

	costs     []float64 // f(y) the engine evaluated after each sweep
	dualIters int
}

// newReplayEngine builds the per-SBS solvers. privacyFor, when non-nil,
// supplies SBS n's LPPM configuration.
func newReplayEngine(inst *model.Instance, privacyFor func(n int) *core.PrivacyConfig, tr *tracer, root int) (*replayEngine, error) {
	e := &replayEngine{inst: inst, yMinus: inst.NewUFMat(), tr: tr, root: root}
	for n := 0; n < inst.N; n++ {
		sub, err := core.NewSubproblem(inst, n, core.DefaultSubproblemConfig())
		if err != nil {
			return nil, err
		}
		e.subs = append(e.subs, sub)
		if privacyFor != nil {
			l, err := core.NewLPPM(*privacyFor(n))
			if err != nil {
				return nil, err
			}
			e.lppm = append(e.lppm, l)
		}
	}
	return e, nil
}

func (e *replayEngine) Kind() model.EngineKind { return model.EngineGaussSeidel }
func (e *replayEngine) Close()                 {}

func (e *replayEngine) Sweep(st *core.SweepState, sweep, first int, _ func(int) error) error {
	tr, inst := e.tr, e.inst
	sw := tr.begin(spanSweep, e.root)
	defer tr.end(sw)
	for pi := first; pi < len(st.Order); pi++ {
		n := st.Order[pi]
		ph := tr.begin(spanPhase, sw)

		s := tr.begin(spanBeginPhase, ph)
		st.Tracker.BeginPhase()
		tr.end(s)

		s = tr.begin(spanYMinus, ph)
		st.Tracker.YMinusInto(inst, st.Y, n, e.yMinus)
		tr.end(s)

		s = tr.begin(spanSolve, ph)
		res, err := e.subs[n].Solve(e.yMinus)
		tr.end(s)
		if err != nil {
			return err
		}
		e.dualIters += res.DualIters

		upload := res.Routing
		if e.lppm != nil {
			s = tr.begin(spanPerturb, ph)
			upload, err = e.lppm[n].PerturbSBS(n, res.Routing)
			tr.end(s)
			if err != nil {
				return err
			}
		}
		st.X.SetRow(n, res.Cache)

		s = tr.begin(spanInstall, ph)
		st.Tracker.Install(inst, st.Y, n, e.yMinus, upload)
		tr.end(s)
		tr.end(ph)
	}
	// core.Driver evaluates f(y) itself after Sweep returns; the engine
	// makes the same call under a span, and checkReplay requires both
	// evaluations to agree bit for bit.
	s := tr.begin(spanCostEval, sw)
	cost := model.TotalServingCostFromAggregate(inst, st.Y, st.Tracker.Aggregate())
	tr.end(s)
	e.costs = append(e.costs, cost.Total)
	return nil
}

// replay runs the traced engine under core.Driver with the default γ and
// the given sweep budget (0 means the default) and returns the driver's
// result.
func (e *replayEngine) replay(maxSweeps int) (*core.RunResult, error) {
	if maxSweeps == 0 {
		maxSweeps = defaultMaxSweeps
	}
	order := make([]int, e.inst.N)
	for i := range order {
		order[i] = i
	}
	d := &core.Driver{Inst: e.inst, Gamma: defaultGamma, MaxSweeps: maxSweeps}
	return d.Run(e, core.NewSweepState(e.inst, order))
}

// checkReplay reports the first difference between a traced run's result
// and the untraced reference, comparing every float by its bits.
// engineCosts, when non-nil, are the replay engine's own f(y) evaluations,
// which must equal the driver's History.
func checkReplay(got, want *core.RunResult, engineCosts []float64) error {
	if got.Sweeps != want.Sweeps || got.Converged != want.Converged {
		return fmt.Errorf("replay ran %d sweeps (converged=%v), reference %d (converged=%v)",
			got.Sweeps, got.Converged, want.Sweeps, want.Converged)
	}
	if err := sameBits("history", got.History, want.History); err != nil {
		return err
	}
	if engineCosts != nil {
		if err := sameBits("engine cost evaluations", engineCosts, got.History); err != nil {
			return err
		}
	}
	gs, ws := got.Solution, want.Solution
	if err := sameBits("final routing", gs.Routing.T.Data, ws.Routing.T.Data); err != nil {
		return err
	}
	if gs.Caching.DiffCount(ws.Caching) != 0 {
		return fmt.Errorf("replay final caching differs from the reference")
	}
	costs := []float64{gs.Cost.Edge, gs.Cost.Backhaul, gs.Cost.Total}
	return sameBits("final cost", costs, []float64{ws.Cost.Edge, ws.Cost.Backhaul, ws.Cost.Total})
}

func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("replay %s has %d values, reference %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("replay %s[%d] = %v, reference %v", what, i, a[i], b[i])
		}
	}
	return nil
}

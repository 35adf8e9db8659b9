package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"edgecache/internal/core"
)

// runner measures one workload for one seed. Every DUA run it makes is an
// attempted operation; a run that errors or fails its output check is a
// failed one.
type runner struct {
	w       workload
	cases   []benchCase
	workDir string  // scratch space for checkpoint stores
	tr      *tracer // nil in an untraced run

	attempted, failed int
	failures          []string

	setups    []float64              // every set-up time, host-normalized, pooled
	setupsRaw []float64              // the same set-up times as measured
	vals      map[string][][]float64 // metric → case → samples
	ref       []*core.RunResult      // last untraced result per case
	seq       int                    // checkpoint directory counter
}

// setupRepeats is how many times a run sets the program up per measured
// run; each set-up is one setup_s sample.
const setupRepeats = 3

func newRunner(w workload, cases []benchCase, workDir string, tr *tracer) *runner {
	return &runner{w: w, cases: cases, workDir: workDir, tr: tr,
		vals: map[string][][]float64{}, ref: make([]*core.RunResult, len(cases))}
}

func (r *runner) record(name string, k int, v float64) {
	if r.vals[name] == nil {
		r.vals[name] = make([][]float64, len(r.cases))
	}
	r.vals[name][k] = append(r.vals[name][k], v)
}

// value is a metric's figure for the run: the median of each case's
// samples, averaged over the cases that have samples.
func (r *runner) value(name string) float64 {
	var sum float64
	var cases int
	for _, s := range r.vals[name] {
		if len(s) > 0 {
			sum += median(s)
			cases++
		}
	}
	if cases == 0 {
		return 0
	}
	return sum / float64(cases)
}

// outcome counts one attempted run and records a failure with its case.
func (r *runner) outcome(k int, what string, err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("case %d (scenario seed %d) %s: %v", k, r.cases[k].seed, what, err))
	return false
}

// measure runs rounds over every case until the next round would end past
// the time budget, after one unrecorded warm-up run.
func (r *runner) measure(budget time.Duration) {
	r.untraced(0, false)
	start := time.Now()
	for {
		t0 := time.Now()
		for k := range r.cases {
			r.untraced(k, true)
			if r.tr != nil {
				r.traced(k)
			}
		}
		if time.Since(start)+time.Since(t0) > budget {
			return
		}
	}
}

// measured is what one untraced run of the program yields.
type measured struct {
	setups      []float64 // seconds, one per set-up
	u           usage
	res         *core.RunResult
	msgs, bytes float64 // BS endpoint traffic (private workload)
	eps         float64 // largest per-SBS ε spent (private workload)
}

// untraced makes one measured run of case k with tracing off, between two
// timings of the host reference kernel.
func (r *runner) untraced(k int, keep bool) {
	runtime.GC()
	kernel := hostRef()
	var m measured
	var err error
	if r.w.private {
		m, err = r.runTCP(k)
	} else {
		m, err = r.runInproc(k)
	}
	runtime.GC()
	kernel = (kernel + hostRef()) / 2
	if !r.outcome(k, "run", err) || !keep {
		return
	}
	scale := refNominal / kernel
	r.ref[k] = m.res
	for _, s := range m.setups {
		r.setups = append(r.setups, s*scale)
		r.setupsRaw = append(r.setupsRaw, s)
	}
	r.record("solve_s", k, m.u.wall*scale)
	r.record("solve_raw_s", k, m.u.wall)
	r.record("host.ref_ms", k, 1e3*kernel)
	r.record("alloc_mb", k, m.u.allocMB)
	r.record("serving_cost", k, m.res.Solution.Cost.Total)
	r.record("proc.cpu_s", k, m.u.cpu)
	r.record("proc.gc_cycles", k, m.u.gc)
	r.record("proc.mallocs", k, m.u.mallocs)
	w := m.res.TotalWork()
	r.record("core.memo.solves", k, float64(w.Solves))
	r.record("core.memo.skipped", k, float64(w.Skipped))
	ratio := 0.0
	if w.Solves+w.Skipped > 0 {
		ratio = float64(w.Skipped) / float64(w.Solves+w.Skipped)
	}
	r.record("core.memo.skip_ratio", k, ratio)
	if r.w.private {
		r.record("transport.msgs", k, m.msgs)
		r.record("transport.bytes", k, m.bytes)
		r.record("wire_mb", k, m.bytes/1e6)
		r.record("epsilon_spent", k, m.eps)
	}
}

// runInproc sets the in-process coordinator up setupRepeats times and runs
// the last one.
func (r *runner) runInproc(k int) (measured, error) {
	inst := r.cases[k].inst
	var m measured
	var coord *core.Coordinator
	for i := 0; i < setupRepeats; i++ {
		if coord != nil {
			coord.Close()
		}
		t0 := time.Now()
		var err error
		coord, err = core.NewCoordinator(inst, core.DefaultConfig())
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if err != nil {
			return m, fmt.Errorf("set-up: %w", err)
		}
	}
	defer coord.Close()
	meter := startMeter()
	res, err := coord.Run()
	m.u = meter.stop()
	if err != nil {
		return m, err
	}
	m.res = res
	return m, checkSolution(inst, res)
}

// runTCP deploys the private workload setupRepeats times, runs the last
// deployment and tears it down.
func (r *runner) runTCP(k int) (measured, error) {
	var m measured
	var d *tcpDeployment
	var dir string
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
			removeAll(dir)
		}
		dir = r.ckptDir()
		t0 := time.Now()
		var err error
		d, err = deployTCP(tcpConfig{c: r.cases[k], ckptDir: dir})
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if err != nil {
			removeAll(dir)
			return m, fmt.Errorf("set-up: %w", err)
		}
	}
	defer removeAll(dir)
	defer d.close()
	res, u, err := d.run()
	m.u = u
	if err != nil {
		return m, err
	}
	m.res = res
	m.msgs, m.bytes = d.wire()
	m.eps = maxEpsilon(d.accts)
	if err := checkSolution(d.inst, res); err != nil {
		return m, err
	}
	return m, checkAccountants(res, d.accts)
}

func (r *runner) ckptDir() string {
	r.seq++
	return filepath.Join(r.workDir, "ckpt-"+strconv.Itoa(r.seq))
}

// traced makes the traced runs of case k: the replay engine for the
// in-process layers and, on the private workload, first the sim
// deployment with traced endpoints and checkpoint sink. Both must
// reproduce the untraced run of the same case bit for bit.
func (r *runner) traced(k int) {
	ref := r.ref[k]
	if ref == nil {
		return // the untraced run failed; there is nothing to compare with
	}
	c := r.cases[k]
	runtime.GC()
	if r.w.private {
		r.tracedTCP(k, ref)
		runtime.GC()
	}
	root := r.tr.beginRun()
	var privacy func(int) *core.PrivacyConfig
	if r.w.private {
		privacy = privacyFor(c.seed, newAccountants(c.inst.N))
	}
	eng, err := newReplayEngine(c.inst, privacy, r.tr, root)
	var res *core.RunResult
	var wall float64
	if err == nil {
		t0 := time.Now()
		res, err = eng.replay(0)
		wall = time.Since(t0).Seconds()
	}
	r.tr.end(root)
	if err == nil {
		err = checkReplay(res, ref, eng.costs)
	}
	if !r.outcome(k, "replay", err) {
		return
	}
	spans, off := r.tr.runSpans(root)
	secs, count, durs := layerTimes(spans, off)
	if !r.w.private {
		r.record("traced.solve_s", k, wall)
	}
	r.record("core.solve.calls", k, float64(count[spanSolve]))
	r.record("core.solve.total_s", k, secs[spanSolve])
	r.record("core.solve.p50_ms", k, 1e3*quantile(durs[spanSolve], 0.5))
	r.record("core.solve.p90_ms", k, 1e3*quantile(durs[spanSolve], 0.9))
	r.record("core.solve.dual_iters", k, float64(eng.dualIters))
	r.record("model.tracker.yminus_s", k, secs[spanYMinus])
	r.record("model.tracker.install_s", k, secs[spanInstall])
	r.record("model.cost.eval_s", k, secs[spanCostEval])
	r.record("core.lppm.calls", k, float64(count[spanPerturb]))
	r.record("core.lppm.perturb_s", k, secs[spanPerturb])
}

func (r *runner) tracedTCP(k int, ref *core.RunResult) {
	dir := r.ckptDir()
	defer removeAll(dir)
	root := r.tr.beginRun()
	d, err := deployTCP(tcpConfig{c: r.cases[k], ckptDir: dir, tr: r.tr, root: root})
	if err != nil {
		r.tr.end(root)
		r.outcome(k, "traced set-up", err)
		return
	}
	defer d.close()
	res, u, err := d.run()
	r.tr.end(root)
	if err == nil {
		err = checkReplay(res, ref, nil)
	}
	if err == nil {
		err = checkAccountants(res, d.accts)
	}
	if !r.outcome(k, "traced run", err) {
		return
	}
	spans, off := r.tr.runSpans(root)
	secs, count, durs := layerTimes(spans, off)
	r.record("traced.solve_s", k, u.wall)
	r.record("transport.send_s", k, secs[spanSend])
	r.record("transport.codec_s", k, secs[spanCodec])
	r.record("sim.bs.recv_wait_s", k, secs[spanBSRecv])
	r.record("sim.phase_rtt_p50_ms", k, 1e3*quantile(durs[spanBSPhase], 0.5))
	r.record("sim.phase_rtt_p90_ms", k, 1e3*quantile(durs[spanBSPhase], 0.9))
	r.record("sim.sbs.busy_s", k, secs[spanSBSHandle])
	r.record("model.ckpt.saves", k, float64(count[spanCheckpointSv]))
	r.record("model.ckpt.bytes", k, float64(d.sink.bytes))
	r.record("model.ckpt.save_p50_ms", k, 1e3*quantile(durs[spanCheckpointSv], 0.5))
	r.record("model.ckpt.save_p90_ms", k, 1e3*quantile(durs[spanCheckpointSv], 0.9))
}

// median of a sample (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

// workload is one named set of inputs. A run builds `instances` problem
// instances from its seed, so one run's figures average over several
// instances of the same shape rather than hanging on one draw.
type workload struct {
	name      string
	instances int
	scenario  func() experiments.Scenario
	private   bool // LPPM on, run as sim agents over TCP with checkpoints
}

var workloads = []workload{
	// Few SBSs with 5,400 knapsack items each: the full-sort knapsack of
	// Subproblem.Solve dominates, and nothing else (memo, transport,
	// checkpoints) is in play.
	{name: "dense-inproc", instances: 6, scenario: denseScenario},
	// Fifty SBSs with ~960 items each: many cheap solves, so per-phase
	// overhead (tracker, cost evaluation, memo probe) shows.
	{name: "sparse-inproc", instances: 8, scenario: sparseScenario},
	// The paper's §V-A scenario with LPPM, as BS/SBS agents over loopback
	// TCP with durable checkpoints: codec, transport, agent allocations,
	// noise and disk writes carry weight beside the solves.
	{name: "private-tcp", instances: 6, scenario: experiments.DefaultScenario, private: true},
}

func denseScenario() experiments.Scenario {
	s := experiments.DefaultScenario()
	s.SBSs, s.Groups, s.Videos, s.LinkCount = 6, 60, 150, 216
	s.CachePerSBS, s.Bandwidth, s.TargetDemand = 30, 2000, 9000
	return s
}

func sparseScenario() experiments.Scenario {
	s := experiments.DefaultScenario()
	s.SBSs, s.Groups, s.Videos, s.LinkCount = 50, 200, 120, 400
	s.CachePerSBS, s.Bandwidth, s.TargetDemand = 12, 200, 20000
	return s
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchCase is one generated instance. Its scenario seed is derived from
// the run seed, and its noise seeds (private workload) from the scenario
// seed, so a run seed fixes every input.
type benchCase struct {
	seed int64
	inst *model.Instance
}

func (w workload) cases(seed int64) ([]benchCase, error) {
	out := make([]benchCase, w.instances)
	for k := range out {
		s := w.scenario()
		s.Seed = seed*1000 + int64(k)
		inst, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("%s instance %d: %w", w.name, k, err)
		}
		out[k] = benchCase{seed: s.Seed, inst: inst}
	}
	return out, nil
}

// LPPM settings of the private workload.
const (
	privateEpsilon = 0.1
	privateDelta   = 0.5
)

// privacyFor gives SBS n its own seeded noise source and the accountant
// accts[n], as each sim SBS agent owns its LPPM.
func privacyFor(caseSeed int64, accts []*dp.Accountant) func(n int) *core.PrivacyConfig {
	return func(n int) *core.PrivacyConfig {
		return &core.PrivacyConfig{
			Epsilon:    privateEpsilon,
			Delta:      privateDelta,
			Noise:      core.NewNoiseSource(caseSeed<<8 + int64(n)),
			Accountant: accts[n],
		}
	}
}

func newAccountants(n int) []*dp.Accountant {
	accts := make([]*dp.Accountant, n)
	for i := range accts {
		accts[i] = &dp.Accountant{}
	}
	return accts
}

// meter brackets one Run: wall time, heap bytes and allocations, GC
// cycles and process CPU time.
type meter struct {
	start time.Time
	ms    runtime.MemStats
	cpu   float64
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.start = time.Now()
	return m
}

// usage is what a meter measured.
type usage struct {
	wall, cpu, allocMB float64
	gc, mallocs        float64
}

func (m *meter) stop() usage {
	wall := time.Since(m.start).Seconds()
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    wall,
		cpu:     cpu - m.cpu,
		allocMB: float64(ms.TotalAlloc-m.ms.TotalAlloc) / 1e6,
		gc:      float64(ms.NumGC - m.ms.NumGC),
		mallocs: float64(ms.Mallocs - m.ms.Mallocs),
	}
}

// costTolerance bounds the relative difference between the reported f(y)
// and f(y) recomputed from the returned routing. The driver evaluates the
// backhaul term from the AggregateTracker's running sums, whose summation
// order differs from a fresh rebuild: under LPPM the two differ in the last
// bit on about half the instances. The edge term is computed the same way
// on both sides and must match bit for bit; the traced run checks the
// reported cost bit for bit against its replay of the running sums.
const costTolerance = 1e-12

// checkSolution is the output check every run passes: the returned policy
// is feasible, and its reported cost is f(y) of the returned routing.
func checkSolution(inst *model.Instance, res *core.RunResult) error {
	if res == nil || res.Solution == nil {
		return errors.New("run returned no solution")
	}
	sol := res.Solution
	if vs := model.CheckFeasibility(inst, sol.Caching, sol.Routing); len(vs) != 0 {
		return fmt.Errorf("infeasible solution:\n%s", model.FormatViolations(vs))
	}
	want := model.TotalServingCost(inst, sol.Routing)
	if math.Float64bits(want.Edge) != math.Float64bits(sol.Cost.Edge) {
		return fmt.Errorf("reported edge cost %v, recomputed %v", sol.Cost.Edge, want.Edge)
	}
	if !(math.Abs(sol.Cost.Total-want.Total) <= costTolerance*math.Abs(want.Total)) {
		return fmt.Errorf("reported cost %v, recomputed f(y) %v", sol.Cost.Total, want.Total)
	}
	return nil
}

// checkAccountants requires a fault-free run in which every SBS released
// exactly one noised upload per phase it served (one phase per sweep).
func checkAccountants(res *core.RunResult, accts []*dp.Accountant) error {
	if f := res.TotalFaults(); f != (core.SBSFaultStats{}) {
		return fmt.Errorf("protocol faults on loopback: %+v", f)
	}
	for n, a := range accts {
		if got := a.Count(); got != res.Sweeps {
			return fmt.Errorf("SBS %d accountant recorded %d releases for %d phases served", n, got, res.Sweeps)
		}
	}
	return nil
}

// maxEpsilon is the largest per-SBS sequential ε spent.
func maxEpsilon(accts []*dp.Accountant) float64 {
	var eps float64
	for _, a := range accts {
		eps = max(eps, a.SequentialEpsilon())
	}
	return eps
}

// tcpDeployment is the private workload's program: one BS and N SBS agents
// on loopback TCP endpoints, wired like sim.RunInmem (reliable layer on
// every endpoint, traffic counting at the BS), with the BS checkpointing
// every sweep to an on-disk store.
type tcpDeployment struct {
	inst    *model.Instance
	raw     []*transport.TCPEndpoint
	bsCount *transport.CountingEndpoint
	bs      *sim.BSAgent
	agents  []*sim.SBSAgent
	accts   []*dp.Accountant
	sink    *tracedSink // nil when untraced
}

// tcpConfig selects one deployment. tr, when non-nil, wraps every
// endpoint and the checkpoint sink with spans under root.
type tcpConfig struct {
	c         benchCase
	maxSweeps int // 0 means the BS default
	ckptDir   string
	tr        *tracer
	root      int
}

const bsName = "bs"

func deployTCP(cfg tcpConfig) (d *tcpDeployment, err error) {
	inst := cfg.c.inst
	d = &tcpDeployment{inst: inst, accts: newAccountants(inst.N)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	listen := func(name string) (*transport.TCPEndpoint, error) {
		ep, err := transport.NewTCPEndpoint(name, "127.0.0.1:0")
		if err == nil {
			d.raw = append(d.raw, ep)
		}
		return ep, err
	}
	wrap := func(ep transport.Endpoint, bs bool) transport.Endpoint {
		if cfg.tr == nil {
			return ep
		}
		return newTracedEndpoint(ep, cfg.tr, cfg.root, bs)
	}

	bsRaw, err := listen(bsName)
	if err != nil {
		return d, err
	}
	names := make([]string, inst.N)
	privacy := privacyFor(cfg.c.seed, d.accts)
	for n := range names {
		names[n] = fmt.Sprintf("sbs-%d", n)
		ep, err := listen(names[n])
		if err != nil {
			return d, err
		}
		bsRaw.AddPeer(names[n], ep.Addr())
		ep.AddPeer(bsName, bsRaw.Addr())
		rel, err := transport.NewReliableEndpoint(ep, transport.RetryPolicy{Seed: int64(n) + 1})
		if err != nil {
			return d, err
		}
		agent, err := sim.NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), privacy(n), wrap(rel, false), bsName)
		if err != nil {
			return d, err
		}
		d.agents = append(d.agents, agent)
	}
	bsRel, err := transport.NewReliableEndpoint(bsRaw, transport.RetryPolicy{})
	if err != nil {
		return d, err
	}
	d.bsCount = transport.NewCountingEndpoint(bsRel)

	store, err := model.NewCheckpointStore(cfg.ckptDir, 0)
	if err != nil {
		return d, err
	}
	var sink model.CheckpointSink = store
	if cfg.tr != nil {
		d.sink = &tracedSink{inner: store, tr: cfg.tr, root: cfg.root}
		sink = d.sink
	}
	bsCfg := sim.BSConfig{MaxSweeps: cfg.maxSweeps, Checkpoint: &core.CheckpointConfig{Sink: sink}}
	d.bs, err = sim.NewBSAgent(inst, bsCfg, wrap(d.bsCount, true), names)
	return d, err
}

// runTimeout bounds one protocol run, far above its ~1 s duration, so a
// hang fails the run instead of the benchmark's time limit.
const runTimeout = 60 * time.Second

// run starts the SBS agents, runs the BS to a result and waits for every
// agent to stop. The meter brackets the BS run only: the result exists
// when it returns.
func (d *tcpDeployment) run() (*core.RunResult, usage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	errs := make([]error, len(d.agents))
	var wg sync.WaitGroup
	for n, a := range d.agents {
		wg.Add(1)
		go func(n int, a *sim.SBSAgent) {
			defer wg.Done()
			errs[n] = a.Run(ctx)
		}(n, a)
	}
	m := startMeter()
	res, err := d.bs.Run(ctx)
	u := m.stop()
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return nil, u, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, u, fmt.Errorf("SBS agent: %w", err)
	}
	return res, u, nil
}

func (d *tcpDeployment) close() {
	for _, ep := range d.raw {
		ep.Close()
	}
}

// wire is the message count and payload bytes across the BS endpoint.
func (d *tcpDeployment) wire() (msgs, bytes float64) {
	s := d.bsCount.Stats()
	return float64(s.SentMessages + s.RecvMessages), float64(s.SentBytes + s.RecvBytes)
}

// removeAll deletes a per-run checkpoint directory.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "duabench: remove %s: %v\n", dir, err)
	}
}

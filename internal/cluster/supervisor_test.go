package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgecache/internal/chaos"
	"edgecache/internal/core"
	"edgecache/internal/leak"
	"edgecache/internal/model"
)

// TestMain doubles as the agent binary: the supervisor under test launches
// this same test executable with "-role ..." as the first argument, and
// the hook below routes such invocations into AgentMain before the testing
// package ever parses flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		if err := AgentMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "agent:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testInstance builds a small deterministic instance with the given SBS
// count. Bandwidth is kept tight so the cells stay coupled and need
// several Gauss-Seidel sweeps — mid-run faults have a window to fire in
// (the experiments scenario's looser instances hit a fixed point in two
// sweeps, before any scheduled fault could trigger).
func testInstance(t *testing.T, sbss int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const u, f = 5, 6
	inst := &model.Instance{
		N: sbss, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, sbss),
		CacheCap:  make([]int, sbss),
		Bandwidth: make([]float64, sbss),
		EdgeCost:  make([][]float64, sbss),
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
	for i := 0; i < sbss; i++ {
		inst.Links[i] = make([]bool, u)
		inst.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			inst.Links[i][j] = rng.Float64() < 0.6
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f/2+1)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

// referenceRun computes the in-process trajectory the cluster must match
// bit-for-bit on the fault-free path. Gamma and MaxSweeps mirror the
// cluster spec exactly so the trajectories are comparable.
func referenceRun(t *testing.T, inst *model.Instance, spec model.ClusterSpec) *core.RunResult {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Gamma = spec.Gamma
	cfg.MaxSweeps = spec.MaxSweeps
	coord, err := core.NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testSpec builds a cluster spec with fast test timings and a Gamma tight
// enough that runs use their whole sweep budget — the small test instances
// otherwise converge in two sweeps, before any mid-run fault can fire.
func testSpec(cells, sbss, maxSweeps int) model.ClusterSpec {
	spec := model.ClusterSpec{
		Gamma:     1e-12,
		MaxSweeps: maxSweeps,
		// Generous timeouts by default: under -race on a loaded box a
		// hundred instrumented processes start slowly, and false liveness
		// kills would make the fault-free assertions flaky. Tests that
		// exercise the deadline machinery override these.
		PhaseTimeoutMS:  8000,
		HeartbeatMS:     20,
		HeartbeatMisses: 250, // 5s liveness deadline (10s with two-strike)
	}
	for i := 0; i < cells; i++ {
		spec.Cells = append(spec.Cells, model.ClusterCell{
			Name: fmt.Sprintf("cell-%d", i),
			SBSs: sbss,
			Seed: int64(100 + i),
		})
	}
	return spec
}

// runSupervised builds the instances, runs a supervised cluster in a fresh
// run dir and returns the result (and the run error for the caller to
// judge). The supervisor log is attached to the test log on failure.
func runSupervised(t *testing.T, spec model.ClusterSpec, procs chaos.ProcSchedule,
	timeout time.Duration) ([]*model.Instance, *Result, error) {
	t.Helper()
	// Every supervised run must unwind completely: heartbeat listeners,
	// per-cell waiters, chaos timers. The guard fails the test with a
	// stack dump if any survive the run.
	leak.Check(t)
	insts := make([]*model.Instance, len(spec.Cells))
	for i, c := range spec.Cells {
		insts[i] = testInstance(t, c.SBSs, c.Seed)
	}
	var logBuf bytes.Buffer
	sup, err := NewSupervisor(Config{
		Spec:      spec,
		Instances: insts,
		Command:   []string{os.Args[0]},
		RunDir:    t.TempDir(),
		Proc:      procs,
		Log:       &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, runErr := sup.Run(ctx)
	runDir := sup.cfg.RunDir
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("supervisor log:\n%s", logBuf.String())
			logs, _ := filepath.Glob(filepath.Join(runDir, "*", "*.log"))
			for _, lf := range logs {
				if data, err := os.ReadFile(lf); err == nil && len(data) > 0 {
					t.Logf("agent log %s:\n%s", lf, data)
				}
			}
		}
	})
	if ctx.Err() != nil {
		t.Fatalf("cluster run hit the %v test timeout: %v\nlog:\n%s", timeout, runErr, logBuf.String())
	}
	return insts, res, runErr
}

// assertBitIdentical compares one cell's collected trajectory against the
// in-process reference with exact float64 equality (JSON round-trips Go
// floats exactly, so this is a true bit-identity check).
func assertBitIdentical(t *testing.T, cell CellResult, ref *core.RunResult) {
	t.Helper()
	if !cell.Completed || cell.Result == nil {
		t.Fatalf("cell %s did not complete: %s", cell.Name, cell.Failure)
	}
	got := cell.Result
	if got.CostTotal != ref.Solution.Cost.Total {
		t.Errorf("cell %s: cost %v, reference %v", cell.Name, got.CostTotal, ref.Solution.Cost.Total)
	}
	if got.Converged != ref.Converged || got.Sweeps != ref.Sweeps {
		t.Errorf("cell %s: converged=%v sweeps=%d, reference converged=%v sweeps=%d",
			cell.Name, got.Converged, got.Sweeps, ref.Converged, ref.Sweeps)
	}
	if len(got.History) != len(ref.History) {
		t.Fatalf("cell %s: history has %d sweeps, reference %d", cell.Name, len(got.History), len(ref.History))
	}
	for i := range got.History {
		if got.History[i] != ref.History[i] {
			t.Errorf("cell %s: history[%d] = %v, reference %v", cell.Name, i, got.History[i], ref.History[i])
		}
	}
}

// TestClusterFaultFree10x10BitIdentical is the ROADMAP acceptance: a
// 10-cell × 10-SBS cluster of real OS processes over TCP converges, and
// every cell's trajectory is bit-for-bit the in-process coordinator's.
func TestClusterFaultFree10x10BitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("110 OS processes; skipped in -short")
	}
	spec := testSpec(10, 10, 6)
	insts, res, err := runSupervised(t, spec, chaos.ProcSchedule{}, 3*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	for i, cell := range res.Cells {
		assertBitIdentical(t, cell, referenceRun(t, insts[i], spec))
		if cell.BSRestarts != 0 || cell.SBSRestarts != 0 {
			t.Errorf("cell %s consumed restarts on the fault-free path (bs=%d sbs=%d)",
				cell.Name, cell.BSRestarts, cell.SBSRestarts)
		}
		if cell.Result.Misses != 0 {
			t.Errorf("cell %s: %d misses on the fault-free path", cell.Name, cell.Result.Misses)
		}
	}
}

// TestClusterBSKillResumes is the other half of the acceptance: a
// chaos-scheduled SIGKILL of one cell's BS mid-sweep; the supervisor must
// restart it from its newest checkpoint and the whole run must still
// converge — with the killed cell's trajectory still bit-identical to the
// reference (PR 4's resume guarantee, now across real process death).
func TestClusterBSKillResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(3, 3, 8)
	spec.Cells[1].Seed = 28 // a 3-sweep instance: the kill lands mid-run
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-1", SBS: -1, Op: chaos.ProcKill, Sweep: 1},
	}}
	insts, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	if len(res.Fired) != 1 || res.Fired[0].Event.Op != chaos.ProcKill {
		t.Fatalf("fired = %+v, want the one scheduled kill", res.Fired)
	}
	if len(res.Unfired) != 0 {
		t.Errorf("unfired = %+v, want none", res.Unfired)
	}
	for i, cell := range res.Cells {
		assertBitIdentical(t, cell, referenceRun(t, insts[i], spec))
	}
	if got := res.Cells[1].BSRestarts; got < 1 {
		t.Errorf("cell-1 BS restarts = %d, want >= 1 (it was SIGKILLed)", got)
	}
	if got := res.Cells[0].BSRestarts + res.Cells[2].BSRestarts; got != 0 {
		t.Errorf("unkilled cells consumed %d BS restarts", got)
	}
}

// TestClusterSBSKillRestarts kills one SBS process mid-run; the supervisor
// restarts it and the cell still completes (the BS's miss machinery covers
// the gap, so only convergence — not bit-identity — is asserted).
func TestClusterSBSKillRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(1, 3, 10)
	spec.Cells[0].Seed = 28
	spec.PhaseTimeoutMS = 500
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-0", SBS: 1, Op: chaos.ProcKill, Sweep: 1},
	}}
	_, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	cell := res.Cells[0]
	if !cell.Completed {
		t.Fatalf("cell did not complete: %s", cell.Failure)
	}
	if cell.SBSRestarts < 1 {
		t.Errorf("SBS restarts = %d, want >= 1", cell.SBSRestarts)
	}
	if len(cell.Escalated) != 0 {
		t.Errorf("escalated = %v, want none (budget not exhausted)", cell.Escalated)
	}
}

// TestClusterSBSEscalationDegradesGracefully exhausts an SBS's restart
// budget (RestartBudget = -1 means zero restarts): the SBS is left
// permanently down, the BS quarantines it and the cell still completes —
// the paper's graceful-degradation story at the process level.
func TestClusterSBSEscalationDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(1, 3, 12)
	spec.Cells[0].Seed = 28
	spec.RestartBudget = -1
	spec.PhaseTimeoutMS = 400
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-0", SBS: 2, Op: chaos.ProcKill, Sweep: 1},
	}}
	_, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	cell := res.Cells[0]
	if !cell.Completed {
		t.Fatalf("cell did not complete: %s", cell.Failure)
	}
	if len(cell.Escalated) != 1 || cell.Escalated[0] != "sbs-2" {
		t.Errorf("escalated = %v, want [sbs-2]", cell.Escalated)
	}
	if cell.Result.Quarantines < 1 {
		t.Errorf("quarantines = %d, want >= 1 (the dead SBS must be quarantined)", cell.Result.Quarantines)
	}
}

// TestClusterBSEscalationFailsCellOnly exhausts a BS's restart budget: its
// cell fails and is torn down, the run reports the failure, and the other
// cell still completes — per-cell blast radius. The kill fires at the BS's
// first progress report (sweep 0): the cell converges by sweep 2 in tens
// of milliseconds, so a later trigger can lose the race to its completion.
func TestClusterBSEscalationFailsCellOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(2, 2, 8)
	spec.RestartBudget = -1
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-0", SBS: -1, Op: chaos.ProcKill, Sweep: 0},
	}}
	_, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err == nil {
		t.Fatal("want a run error naming the failed cell")
	}
	if !strings.Contains(err.Error(), "cell-0") {
		t.Errorf("error %q does not name cell-0", err)
	}
	if res.Cells[0].Completed || res.Cells[0].Failure == "" {
		t.Errorf("cell-0 = %+v, want failed with a reason", res.Cells[0])
	}
	if !res.Cells[1].Completed {
		t.Errorf("cell-1 did not complete: %s", res.Cells[1].Failure)
	}
}

// TestClusterStopContFreeze freezes the BS with SIGSTOP for less than the
// heartbeat deadline: the scheduled SIGCONT resumes it and the run
// completes without consuming any restart.
func TestClusterStopContFreeze(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(1, 3, 8)
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-0", SBS: -1, Op: chaos.ProcStop, Sweep: 1, Delay: 200 * time.Millisecond},
	}}
	_, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	cell := res.Cells[0]
	if !cell.Completed {
		t.Fatalf("cell did not complete: %s", cell.Failure)
	}
	if cell.BSRestarts != 0 {
		t.Errorf("BS restarts = %d, want 0 (a sub-deadline freeze is not a death)", cell.BSRestarts)
	}
	if len(res.Fired) != 1 || res.Fired[0].Event.Op != chaos.ProcStop {
		t.Errorf("fired = %+v, want the one stop", res.Fired)
	}
}

// TestClusterFreezeKillConsumesRestart freezes the BS for well past the
// liveness deadline: the supervisor must declare it dead (two strikes),
// SIGKILL it, and restart it from its checkpoint — a frozen process is a
// crashed process as far as the cell is concerned.
func TestClusterFreezeKillConsumesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(1, 3, 8)
	spec.Cells[0].Seed = 28
	// The deadline must be short enough that the 8s freeze is declared a
	// death (4s two-strike kill), yet long enough that a restart storm on a
	// loaded single-core -race run cannot starve a healthy agent's 20ms
	// ticker past it.
	spec.HeartbeatMisses = 100 // 2s deadline, 4s with two-strike
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-0", SBS: -1, Op: chaos.ProcStop, Sweep: 1, Delay: 8 * time.Second},
	}}
	_, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	cell := res.Cells[0]
	if !cell.Completed {
		t.Fatalf("cell did not complete: %s", cell.Failure)
	}
	if cell.BSRestarts < 1 {
		t.Errorf("BS restarts = %d, want >= 1 (the freeze outlived the deadline)", cell.BSRestarts)
	}
}

// TestClusterSpawnDelayLateJoin delays one SBS's launch: the cell starts
// without it, the BS misses its phases, and once the straggler reports its
// address reaches the BS incrementally and the run completes.
func TestClusterSpawnDelayLateJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	spec := testSpec(1, 3, 14)
	spec.PhaseTimeoutMS = 300
	procs := chaos.ProcSchedule{Events: []chaos.ProcEvent{
		{Cell: "cell-0", SBS: 1, Op: chaos.ProcSpawnDelay, Delay: 400 * time.Millisecond},
	}}
	_, res, err := runSupervised(t, spec, procs, 2*time.Minute)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	cell := res.Cells[0]
	if !cell.Completed {
		t.Fatalf("cell did not complete: %s", cell.Failure)
	}
	if cell.Result.Misses == 0 {
		t.Log("late join was absorbed without a single miss (tight but possible)")
	}
}

// TestNewSupervisorValidation exercises the constructor's shape checks.
func TestNewSupervisorValidation(t *testing.T) {
	inst := testInstance(t, 2, 1)
	spec := testSpec(1, 2, 4)
	base := func() Config {
		return Config{
			Spec:      spec,
			Instances: []*model.Instance{inst},
			Command:   []string{os.Args[0]},
			RunDir:    t.TempDir(),
		}
	}
	if _, err := NewSupervisor(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no command", func(c *Config) { c.Command = nil }},
		{"no run dir", func(c *Config) { c.RunDir = "" }},
		{"instance count", func(c *Config) { c.Instances = nil }},
		{"instance shape", func(c *Config) { c.Instances = []*model.Instance{testInstance(t, 3, 1)} }},
		{"unknown chaos cell", func(c *Config) {
			c.Proc = chaos.ProcSchedule{Events: []chaos.ProcEvent{{Cell: "nope", SBS: -1, Op: chaos.ProcKill, Sweep: 1}}}
		}},
		{"chaos SBS range", func(c *Config) {
			c.Proc = chaos.ProcSchedule{Events: []chaos.ProcEvent{{Cell: "cell-0", SBS: 7, Op: chaos.ProcKill, Sweep: 1}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := NewSupervisor(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestParseLine covers the stdout protocol parser.
func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		kind string
		ok   bool
	}{
		{"ADDR 127.0.0.1:4242", lineAddr, true},
		{"HB 3 1", lineHB, true},
		{"HB -1 -1", lineHB, true},
		{"DONE", lineDone, true},
		{"", "", false},
		{"HB 3", "", false},
		{"HB x y", "", false},
		{"ADDR", "", false},
		{"garbage line", "", false},
	}
	for _, tc := range cases {
		kind, _, _, _, ok := parseLine(tc.line)
		if kind != tc.kind || ok != tc.ok {
			t.Errorf("parseLine(%q) = (%q, %v), want (%q, %v)", tc.line, kind, ok, tc.kind, tc.ok)
		}
	}
}

// TestResultFileRoundTrip covers the atomic result codec.
func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	in := &AgentResult{Converged: true, Sweeps: 4, CostTotal: 123.0625, History: []float64{3, 2, 1.5, 1.25}, Misses: 2}
	if err := writeResultFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.CostTotal != in.CostTotal || out.Sweeps != in.Sweeps || !out.Converged ||
		len(out.History) != len(in.History) || out.Misses != 2 {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

package main

import (
	"math"
	"strings"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
)

func fingerprints(t *testing.T, w workload, seed int64) []uint64 {
	t.Helper()
	cases, err := w.cases(seed)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]uint64, len(cases))
	for i, c := range cases {
		fps[i] = c.inst.Fingerprint()
	}
	return fps
}

func TestSeedFixesInstances(t *testing.T) {
	for _, w := range workloads {
		a, again, other := fingerprints(t, w, 1), fingerprints(t, w, 1), fingerprints(t, w, 2)
		seen := map[uint64]bool{}
		for i := range a {
			if a[i] != again[i] {
				t.Errorf("%s case %d: seed 1 gave fingerprints %x and %x", w.name, i, a[i], again[i])
			}
			seen[a[i]] = true
		}
		if len(seen) != len(a) {
			t.Errorf("%s: the cases of one seed repeat an instance: %x", w.name, a)
		}
		for i := range other {
			if seen[other[i]] {
				t.Errorf("%s case %d: seed 2 repeats an instance of seed 1 (%x)", w.name, i, other[i])
			}
		}
	}
}

// reduced shrinks a workload's scenario so a test runs it in well under a
// second, keeping its shape: dense keeps few SBSs with 60% link density,
// sparse keeps about two SBSs per MU group.
func reduced(t *testing.T, name string, seed int64) *model.Instance {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s := w.scenario()
	switch name {
	case "dense-inproc":
		s.SBSs, s.Groups, s.Videos, s.LinkCount = 3, 20, 40, 36
		s.CachePerSBS, s.Bandwidth, s.TargetDemand = 8, 500, 3000
	case "sparse-inproc":
		s.SBSs, s.Groups, s.Videos, s.LinkCount = 12, 40, 30, 80
		s.CachePerSBS, s.Bandwidth, s.TargetDemand = 5, 100, 4000
	}
	s.Seed = seed
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestReplayMatchesCoordinator(t *testing.T) {
	for _, name := range []string{"dense-inproc", "sparse-inproc"} {
		for seed := int64(1); seed <= 3; seed++ {
			inst := reduced(t, name, seed)
			coord, err := core.NewCoordinator(inst, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			want, err := coord.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			root := tr.beginRun()
			eng, err := newReplayEngine(inst, nil, tr, root)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.replay(0)
			if err != nil {
				t.Fatal(err)
			}
			tr.end(root)
			if err := checkReplay(got, want, eng.costs); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			spans, off := tr.runSpans(root)
			_, count, _ := layerTimes(spans, off)
			if phases := want.Sweeps * inst.N; count[spanSolve] != phases || count[spanInstall] != phases {
				t.Errorf("%s seed %d: %d solve and %d install spans for %d phases",
					name, seed, count[spanSolve], count[spanInstall], phases)
			}
		}
	}
}

// TestPrivateTCPSmoke runs the private workload's deployment at a small
// sweep budget, untraced and traced, and its replay: every run passes the
// output checks and the three trajectories agree bit for bit.
func TestPrivateTCPSmoke(t *testing.T) {
	const sweeps = 3
	s := experiments.DefaultScenario()
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := benchCase{seed: s.Seed, inst: inst}

	deployRun := func(tr *tracer, root int) (*core.RunResult, *tcpDeployment) {
		d, err := deployTCP(tcpConfig{c: c, maxSweeps: sweeps, ckptDir: t.TempDir(), tr: tr, root: root})
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		res, _, err := d.run()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSolution(inst, res); err != nil {
			t.Error(err)
		}
		if err := checkAccountants(res, d.accts); err != nil {
			t.Error(err)
		}
		if res.Sweeps != sweeps {
			t.Errorf("ran %d sweeps, budget %d", res.Sweeps, sweeps)
		}
		return res, d
	}

	want, d := deployRun(nil, noParent)
	if msgs, _ := d.wire(); msgs != 2*sweeps*float64(inst.N)+float64(inst.N) {
		t.Errorf("BS endpoint saw %v messages, want 2 per phase plus one done per SBS", msgs)
	}
	if eps := maxEpsilon(d.accts); math.Abs(eps-sweeps*privateEpsilon) > 1e-9 {
		t.Errorf("epsilon spent %v, want %v", eps, sweeps*privateEpsilon)
	}

	tr := newTracer()
	root := tr.beginRun()
	traced, d := deployRun(tr, root)
	tr.end(root)
	if err := checkReplay(traced, want, nil); err != nil {
		t.Errorf("traced deployment: %v", err)
	}
	spans, off := tr.runSpans(root)
	_, count, _ := layerTimes(spans, off)
	phases := sweeps * inst.N
	if count[spanBSPhase] != phases || count[spanSBSHandle] != phases || count[spanCheckpointSv] != sweeps {
		t.Errorf("spans: %d BS phases, %d SBS handles, %d saves; want %d, %d, %d",
			count[spanBSPhase], count[spanSBSHandle], count[spanCheckpointSv], phases, phases, sweeps)
	}
	if d.sink.bytes <= 0 {
		t.Error("traced sink recorded no checkpoint bytes")
	}

	root = tr.beginRun()
	eng, err := newReplayEngine(inst, privacyFor(c.seed, newAccountants(inst.N)), tr, root)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.replay(sweeps)
	if err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if err := checkReplay(replayed, want, eng.costs); err != nil {
		t.Errorf("replay: %v", err)
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child running past its parent's end
// is clipped, and a grandchild counts against its own parent only. The
// tree sits at offset 5 of the tracer, as a later run's spans do.
func TestSelfTimes(t *testing.T) {
	const o = 5
	spans := []Span{
		{Parent: noParent, Name: "root", Start: 0, End: 100},
		{Parent: o + 0, Name: "a", Start: 10, End: 40},
		{Parent: o + 0, Name: "b", Start: 30, End: 60},
		{Parent: o + 0, Name: "c", Start: 90, End: 120},
		{Parent: o + 1, Name: "a1", Start: 15, End: 25},
	}
	got := selfTimes(spans, o)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	secs, count, _ := layerTimes(spans, o)
	if count["a"] != 1 || secs["root"] != 40e-9 {
		t.Errorf("layerTimes: count[a]=%d secs[root]=%v", count["a"], secs["root"])
	}
}

// TestCorruptedResultFails: the output checks reject a result whose cost,
// policy, trajectory or privacy ledger was tampered with.
func TestCorruptedResultFails(t *testing.T) {
	inst := reduced(t, "dense-inproc", 1)
	run := func() *core.RunResult {
		coord, err := core.NewCoordinator(inst, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run()
	if err := checkSolution(inst, ref); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	corruptions := map[string]func(*core.RunResult){
		"cost": func(r *core.RunResult) { r.Solution.Cost.Total = math.Nextafter(r.Solution.Cost.Total, 0) * (1 - 1e-9) },
		"edge": func(r *core.RunResult) { r.Solution.Cost.Edge = math.Nextafter(r.Solution.Cost.Edge, 0) },
		"routing": func(r *core.RunResult) {
			r.Solution.Routing.T.Data[0] = 1.5
		},
	}
	for name, corrupt := range corruptions {
		res := run()
		corrupt(res)
		if err := checkSolution(inst, res); err == nil {
			t.Errorf("%s corruption passed the output check", name)
		}
	}

	res := run()
	res.History[len(res.History)-1] = math.Nextafter(res.History[len(res.History)-1], 0)
	if err := checkReplay(res, ref, nil); err == nil || !strings.Contains(err.Error(), "history") {
		t.Errorf("a one-ulp history change passed the replay check: %v", err)
	}

	accts := newAccountants(2)
	for _, a := range accts {
		for i := 0; i < ref.Sweeps; i++ {
			if err := a.Record("sbs", privateEpsilon); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := checkAccountants(ref, accts); err != nil {
		t.Fatalf("clean ledger rejected: %v", err)
	}
	if err := accts[1].Record("sbs", privateEpsilon); err != nil {
		t.Fatal(err)
	}
	if err := checkAccountants(ref, accts); err == nil {
		t.Error("an extra release passed the accountant check")
	}
}

package main

import (
	"os"
	"path/filepath"
	"testing"
)

// smallArgs shrinks the scenario so a full run stays fast in unit tests.
func smallArgs(extra ...string) []string {
	base := []string{
		"-groups", "8", "-links", "12", "-videos", "12",
		"-cache", "4", "-bandwidth", "300",
	}
	return append(base, extra...)
}

func TestRunBasic(t *testing.T) {
	if err := run(smallArgs()); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPrivacyAndCompare(t *testing.T) {
	if err := run(smallArgs("-epsilon", "0.5", "-compare")); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributed(t *testing.T) {
	if err := run(smallArgs("-distributed")); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaos(t *testing.T) {
	args := smallArgs("-chaos", "seed=3,dup=0.5,crash=1@1+2", "-phase-timeout", "500ms")
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(smallArgs("-chaos", "drop=oops")); err == nil {
		t.Error("bad chaos spec: want error")
	}
	if err := run(smallArgs("-chaos", "crash=99@1")); err == nil {
		t.Error("out-of-range chaos target: want error")
	}
}

// TestRunCheckpointRetainZeroKeepsStoreDefault pins what
// -checkpoint-retain 0 means: not "keep all" but the store's default of
// five snapshots, the newest ones.
func TestRunCheckpointRetainZeroKeepsStoreDefault(t *testing.T) {
	dir := t.TempDir()
	if err := run(smallArgs("-epsilon", "0.1", "-checkpoint-dir", dir, "-checkpoint-retain", "0")); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("kept %d snapshots, want 5: %v", len(names), names)
	}
	// Glob sorts, and the zero-padded names sort chronologically.
	if newest := filepath.Base(names[4]); newest <= "ckpt-00000005-0000.ckpt" {
		t.Fatalf("newest snapshot %s: the run needs more than five sweep boundaries to show pruning", newest)
	}
}

func TestRunWithRestarts(t *testing.T) {
	if err := run(smallArgs("-restarts", "2")); err != nil {
		t.Fatal(err)
	}
}

func TestRunJacobi(t *testing.T) {
	if err := run(smallArgs("-engine", "jacobi")); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiRegion(t *testing.T) {
	if err := run(smallArgs("-regions", "2", "-epsilon", "0.5")); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidateFlag(t *testing.T) {
	if err := run(smallArgs("-validate")); err != nil {
		t.Fatal(err)
	}
}

func TestRunSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	instPath := dir + "/inst.json"
	solPath := dir + "/sol.json"
	if err := run(smallArgs("-save-instance", instPath, "-save-solution", solPath)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load-instance", instPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load-instance", dir + "/missing.json"}); err == nil {
		t.Error("missing file: want error")
	}
}

func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	if err := run(smallArgs("-cpuprofile", cpu, "-memprofile", mem, "-trace", tr)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if err := run(smallArgs("-cpuprofile", filepath.Join(dir, "no", "dir", "cpu"))); err == nil {
		t.Error("unwritable profile path: want error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag: want error")
	}
	if err := run([]string{"-sbss", "0"}); err == nil {
		t.Error("zero SBSs: want error")
	}
	if err := run(smallArgs("-links", "1000")); err == nil {
		t.Error("too many links: want error")
	}
	if err := run(smallArgs("-regions", "9")); err == nil {
		t.Error("more regions than SBSs: want error")
	}
}

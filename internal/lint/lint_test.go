package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgecache/internal/lint"
	"edgecache/internal/lint/linttest"
)

// TestAnalyzers runs each analyzer over its fixture package and matches
// the reported diagnostics against the fixtures' // want comments: one
// true-positive set and one annotated-clean set per analyzer.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name      string
		analyzers string
		pattern   string
	}{
		{"noalloc", "noalloc", "./fixtures/noallocsrc"},
		{"determinism", "determinism", "./fixtures/determsrc"},
		{"floateq", "floateq", "./fixtures/floateqsrc"},
		{"flataccess", "flataccess", "./fixtures/flatsrc"},
		{"lockedsend", "lockedsend", "./fixtures/locksrc"},
		{"privflow", "privflow", "./fixtures/privflowsrc"},
		{"goleak", "goleak", "./fixtures/goleaksrc"},
		{"atomicmix", "atomicmix", "./fixtures/atomicsrc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			linttest.Check(t, ".", tc.analyzers, tc.pattern)
		})
	}
}

// TestRepoIsClean is the self-check the verify.sh gate relies on: the
// full suite over the whole module (fixtures skipped, as in the driver)
// must report nothing.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is not short")
	}
	prog, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prog.Run(lint.Analyzers(), lint.DefaultSkip) {
		t.Errorf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// TestNoPrivflowSuppressionsInProgramCode keeps privflow a gate rather
// than a list of exceptions: no //edgecache:lint-ignore privflow directive
// may exist anywhere in the repository except in internal/lint's own
// tests and fixtures. Private data that must reach a sink passes an LPPM
// sanitizer; data that need not reach it is not written.
func TestNoPrivflowSuppressionsInProgramCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == ".git" || rel == "internal/lint/fixtures" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") ||
			(strings.HasPrefix(rel, "internal/lint/") && strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				fields := strings.Fields(c.Text)
				if len(fields) >= 2 && fields[0] == "//edgecache:lint-ignore" && fields[1] == "privflow" {
					t.Errorf("%s:%d: privflow suppression %q", rel, fset.Position(c.Pos()).Line, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGateCatchesInjectedViolations demonstrates the acceptance criterion
// directly: dropping an allocating append into a //edgecache:noalloc
// function and a time.Now into internal/sim must fail the gate.
func TestGateCatchesInjectedViolations(t *testing.T) {
	tmp := t.TempDir()
	writeFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeFile(t, filepath.Join(tmp, "internal/sim/sim.go"), `package sim

import "time"

// Hot pretends to be a zero-alloc hot path but grows its input.
//
//edgecache:noalloc
func Hot(xs []int, x int) []int { return append(xs, x) }

// Stamp reads the wall clock inside the deterministic simulation layer.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	prog, err := lint.Load(tmp, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(lint.Analyzers(), lint.DefaultSkip)
	assertDiag(t, diags, "noalloc", "append may allocate")
	assertDiag(t, diags, "determinism", "time.Now")
	if len(diags) != 2 {
		t.Errorf("want exactly 2 findings, got %d: %v", len(diags), diags)
	}
}

// TestDirectiveValidation covers the suppression machinery's failure
// modes: missing reason, unknown analyzer, and a stale suppression.
func TestDirectiveValidation(t *testing.T) {
	tmp := t.TempDir()
	writeFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeFile(t, filepath.Join(tmp, "internal/core/x.go"), `package core

// Reasonless suppresses without saying why.
func Reasonless(a, b float64) bool {
	//edgecache:lint-ignore floateq
	return a == b
}

// Typo names an analyzer that does not exist.
func Typo(a, b float64) bool {
	return a == b //edgecache:lint-ignore floateqq looks right at a glance
}

// Stale suppresses a line with nothing to suppress.
func Stale(a, b int) bool {
	return a == b //edgecache:lint-ignore floateq ints compare exactly anyway
}

// StalePriv suppresses the dataflow analyzer where nothing flows.
func StalePriv() int {
	return 1 //edgecache:lint-ignore privflow nothing private on this line
}
`)
	prog, err := lint.Load(tmp, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(lint.Analyzers(), lint.DefaultSkip)
	assertDiag(t, diags, "directive", "gives no reason")
	assertDiag(t, diags, "directive", `unknown analyzer "floateqq"`)
	assertDiag(t, diags, "directive", "unused lint-ignore floateq")
	assertDiag(t, diags, "directive", "unused lint-ignore privflow")
	// The malformed directive does not suppress, so Reasonless's comparison
	// still fires; Typo's misnamed directive leaves its comparison exposed
	// too.
	floatDiags := 0
	for _, d := range diags {
		if d.Analyzer == "floateq" {
			floatDiags++
		}
	}
	if floatDiags != 2 {
		t.Errorf("want 2 surviving floateq findings, got %d: %v", floatDiags, diags)
	}
}

// TestResultCacheRoundTrip drives RunCached through its three states:
// cold (load + populate), warm (no load, all hits), and invalidated by a
// source edit (load again, new results).
func TestResultCacheRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	cacheDir := filepath.Join(tmp, "cache")
	srcPath := filepath.Join(tmp, "internal/core/x.go")
	writeFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeFile(t, srcPath, `package core

import (
	"math"
)

// Same reports float equality the naive way.
func Same(a, b float64) bool {
	return math.Abs(a) == b
}
`)
	suite, err := lint.ByName("floateq")
	if err != nil {
		t.Fatal(err)
	}

	d1, s1, err := lint.RunCached(tmp, suite, lint.DefaultSkip, cacheDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Loaded || s1.CacheHits != 0 || len(d1) != 1 {
		t.Fatalf("cold run: stats %+v, %d diags", s1, len(d1))
	}

	d2, s2, err := lint.RunCached(tmp, suite, lint.DefaultSkip, cacheDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Loaded || s2.CacheHits != s2.Packages || s2.Packages == 0 {
		t.Fatalf("warm run should be all hits without loading: stats %+v", s2)
	}
	if len(d2) != 1 || d2[0].Message != d1[0].Message || d2[0].Pos.Line != d1[0].Pos.Line {
		t.Fatalf("cached diags differ from live: %v vs %v", d2, d1)
	}

	// Fixing the comparison must invalidate the entry and clear the finding.
	writeFile(t, srcPath, `package core

import (
	"math"
)

// Same reports float equality with a tolerance.
func Same(a, b float64) bool {
	return math.Abs(math.Abs(a)-b) <= 1e-9
}
`)
	d3, s3, err := lint.RunCached(tmp, suite, lint.DefaultSkip, cacheDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Loaded || len(d3) != 0 {
		t.Fatalf("edited run: stats %+v, diags %v", s3, d3)
	}
}

// TestResultCacheGlobalSuiteInvalidation checks the whole-program keying:
// a suite containing privflow must reanalyze every package when ANY module
// file changes, because a new //edgecache:private tag anywhere can create
// findings everywhere.
func TestResultCacheGlobalSuiteInvalidation(t *testing.T) {
	tmp := t.TempDir()
	cacheDir := filepath.Join(tmp, "cache")
	writeFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeFile(t, filepath.Join(tmp, "internal/a/a.go"), "package a\n\n// V is a value.\nvar V = 1\n")
	writeFile(t, filepath.Join(tmp, "internal/b/b.go"), "package b\n\n// W is a value.\nvar W = 2\n")
	suite, err := lint.ByName("privflow")
	if err != nil {
		t.Fatal(err)
	}
	if _, s, err := lint.RunCached(tmp, suite, lint.DefaultSkip, cacheDir, "./..."); err != nil || !s.Loaded {
		t.Fatalf("cold run: stats %+v, err %v", s, err)
	}
	if _, s, err := lint.RunCached(tmp, suite, lint.DefaultSkip, cacheDir, "./..."); err != nil || s.Loaded {
		t.Fatalf("warm run: stats %+v, err %v", s, err)
	}
	// Touching b must miss a's entry too under a global suite.
	writeFile(t, filepath.Join(tmp, "internal/b/b.go"), "package b\n\n// W is a value.\nvar W = 3\n")
	if _, s, err := lint.RunCached(tmp, suite, lint.DefaultSkip, cacheDir, "./..."); err != nil || !s.Loaded || s.CacheHits != 0 {
		t.Fatalf("post-edit run should miss everywhere: stats %+v, err %v", s, err)
	}
}

func assertDiag(t *testing.T, diags []lint.Diagnostic, analyzer, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("no %s diagnostic containing %q in %v", analyzer, substr, diags)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

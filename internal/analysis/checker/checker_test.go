package checker_test

import (
	"testing"
	"time"

	"finemoe/internal/analysis/checker"
	"finemoe/internal/analysis/suite"
)

// moduleRoot is where the repo's go.mod lives, relative to this package.
const moduleRoot = "../../.."

// lintWallBudget bounds one full-repo run of the complete analyzer suite
// including the staleness sweep. A warm-cache run takes well under a
// second; the budget leaves two orders of magnitude for cold build
// caches and loaded CI machines while still catching an accidental
// super-linear regression in the fixpoint or fact layers.
const lintWallBudget = 60 * time.Second

// TestRepoLintClean pins `finemoe-lint ./...` clean: zero
// findings and zero stale directives over the whole module, in-process
// through the same driver entry point the CLI uses. A change that
// introduces a hot-path allocation, an unordered reduction, or a dead
// suppression fails here before it reaches CI.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	start := time.Now()
	rep, err := checker.RunPackages(moduleRoot, []string{"./..."}, suite.All)
	if err != nil {
		t.Fatalf("running the analyzer suite: %v", err)
	}
	for _, f := range rep.Findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
	if len(rep.Inventory) == 0 {
		t.Error("directive inventory is empty; the staleness sweep did not run")
	}
	if elapsed := time.Since(start); elapsed > lintWallBudget {
		t.Errorf("full-repo lint took %v, over the %v budget", elapsed, lintWallBudget)
	}
}

// BenchmarkRepoLint measures one full-module pass of the complete suite
// (load + analyze + staleness sweep), for before/after comparison when
// touching the analyzers or the fact layer.
func BenchmarkRepoLint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := checker.RunPackages(moduleRoot, []string{"./..."}, suite.All)
		if err != nil {
			b.Fatalf("running the analyzer suite: %v", err)
		}
		if n := len(rep.Findings); n != 0 {
			b.Fatalf("repo not lint-clean: %d finding(s)", n)
		}
	}
}

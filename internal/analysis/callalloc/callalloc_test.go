package callalloc_test

import (
	"testing"

	"finemoe/internal/analysis"
	"finemoe/internal/analysis/analysistest"
	"finemoe/internal/analysis/callalloc"
)

// TestCallalloc covers the whole-program wants: local helper chains,
// cross-package facts imported from finemoe/callee, interface dispatch,
// indirect calls, and both sanction levels (call site and leaf
// function). Listing callee too asserts the dependency itself stays
// diagnostic-free.
func TestCallalloc(t *testing.T) {
	analysistest.Run(t, "../testdata", callalloc.Analyzer, "finemoe/hotcaller", "finemoe/callee")
}

// TestHotpathBodies covers the allocation shapes flagged inside a
// //finemoe:hotpath root's own body (finemoe/hot): escaping composite
// literals, new, unguarded make, fresh slice literals, unpreallocated
// appends, boxing, capturing closures, and the allocok sanction.
func TestHotpathBodies(t *testing.T) {
	analysistest.Run(t, "../testdata", callalloc.Analyzer, "finemoe/hot")
}

// TestStaleDirectives drives the staleness sweep through fixtures: a
// suppression that no longer does work and a misspelled directive are
// flagged; a live suppression is not.
func TestStaleDirectives(t *testing.T) {
	analysistest.RunStale(t, "../testdata", []*analysis.Analyzer{callalloc.Analyzer}, "finemoe/staledir")
}

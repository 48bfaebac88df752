// Package suite is the one list of every finemoe-lint analyzer, shared
// by cmd/finemoe-lint and the repo-clean regression test, so a newly
// added analyzer cannot be wired into one consumer and forgotten in
// another.
package suite

import (
	"finemoe/internal/analysis"
	"finemoe/internal/analysis/callalloc"
	"finemoe/internal/analysis/detrange"
	"finemoe/internal/analysis/floatorder"
	"finemoe/internal/analysis/mustrelease"
	"finemoe/internal/analysis/noclock"
	"finemoe/internal/analysis/puritycheck"
	"finemoe/internal/analysis/sharedstate"
	"finemoe/internal/analysis/unitmix"
)

// All lists the full analyzer suite: the four intraprocedural checks
// first, then the four interprocedural, fact-carrying ones.
var All = []*analysis.Analyzer{
	detrange.Analyzer,
	noclock.Analyzer,
	unitmix.Analyzer,
	mustrelease.Analyzer,
	callalloc.Analyzer,
	sharedstate.Analyzer,
	floatorder.Analyzer,
	puritycheck.Analyzer,
}

package main

import (
	"time"

	"finemoe/internal/cache"
	"finemoe/internal/cluster"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/walltime"
	"finemoe/internal/workload"
)

// probes times the calls a round makes into each layer it can wrap from
// outside the simulator: the workload source, the router, and each
// instance's offloading policy together with the transfer requests the
// policy issues back into the engine (serve's residency machine, the
// expert caches and the memsim links). A nil *probes wraps nothing, so
// untraced rounds run the simulator's own objects.
type probes struct {
	// sourceBusy and routerBusy are the time inside Source.Next and
	// Router.Route, both called on the loop's coordinating goroutine.
	sourceBusy, routerBusy time.Duration
	// clocks holds one entry per engine, including crash replacements;
	// under the sharded loop each is touched by one worker goroutine only.
	clocks []*policyClock
}

// policyClock is one engine's policy-layer account.
type policyClock struct {
	// hooks is the time inside policy hooks, transfer included; transfer
	// the part spent in Runtime calls that move expert weights.
	hooks, transfer time.Duration
	// calls counts policy hooks; scores counts eviction-scorer calls,
	// the work of the caches' victim scans.
	calls, scores int
}

// source wraps the round's input.
func (p *probes) source(src workload.Source) workload.Source {
	if p == nil {
		return src
	}
	return &timedSource{Source: src, busy: &p.sourceBusy}
}

// router wraps the fleet's router.
func (p *probes) router(r cluster.Router) cluster.Router {
	if p == nil {
		return r
	}
	return &timedRouter{Router: r, busy: &p.routerBusy}
}

// policy wraps one engine's policy with a fresh clock.
func (p *probes) policy(pol policy.Policy) policy.Policy {
	if p == nil {
		return pol
	}
	c := &policyClock{}
	p.clocks = append(p.clocks, c)
	return &timedPolicy{Policy: pol, c: c}
}

// total sums the per-engine clocks.
func (p *probes) total() policyClock {
	var t policyClock
	for _, c := range p.clocks {
		t.hooks += c.hooks
		t.transfer += c.transfer
		t.calls += c.calls
		t.scores += c.scores
	}
	return t
}

type timedSource struct {
	workload.Source
	busy *time.Duration
}

func (s *timedSource) Next() (workload.Request, bool) {
	sw := walltime.Start()
	q, ok := s.Source.Next()
	*s.busy += sw.Elapsed()
	return q, ok
}

type timedRouter struct {
	cluster.Router
	busy *time.Duration
}

func (r *timedRouter) Route(req workload.Request, nowMS float64, fleet []cluster.InstanceState) int {
	sw := walltime.Start()
	i := r.Router.Route(req, nowMS, fleet)
	*r.busy += sw.Elapsed()
	return i
}

// timedPolicy times every hook the engine calls; Name, Breakdown and
// MemoryOverheadBytes pass through, so results are unchanged.
type timedPolicy struct {
	policy.Policy
	c *policyClock
}

func (p *timedPolicy) Attach(rt policy.Runtime) {
	p.Policy.Attach(&timedRuntime{Runtime: rt, c: p.c})
}

func (p *timedPolicy) Scorer() cache.Scorer {
	return &countedScorer{Scorer: p.Policy.Scorer(), c: p.c}
}

func (p *timedPolicy) StartRequest(reqID uint64, now float64) float64 {
	sw := walltime.Start()
	d := p.Policy.StartRequest(reqID, now)
	p.c.hooks += sw.Elapsed()
	p.c.calls++
	return d
}

func (p *timedPolicy) StartIteration(views []policy.IterView, now float64) float64 {
	sw := walltime.Start()
	d := p.Policy.StartIteration(views, now)
	p.c.hooks += sw.Elapsed()
	p.c.calls++
	return d
}

func (p *timedPolicy) OnGate(layer int, views []policy.LayerView, now float64) float64 {
	sw := walltime.Start()
	d := p.Policy.OnGate(layer, views, now)
	p.c.hooks += sw.Elapsed()
	p.c.calls++
	return d
}

func (p *timedPolicy) EndIteration(reqID uint64, it *moe.Iteration, now float64) float64 {
	sw := walltime.Start()
	d := p.Policy.EndIteration(reqID, it, now)
	p.c.hooks += sw.Elapsed()
	p.c.calls++
	return d
}

func (p *timedPolicy) EndRequest(reqID uint64, now float64) {
	sw := walltime.Start()
	p.Policy.EndRequest(reqID, now)
	p.c.hooks += sw.Elapsed()
	p.c.calls++
}

// timedRuntime times the Runtime calls that issue or drop expert
// transfers; the residency queries pass through untimed (they are cheap
// and frequent, and their cost stays in the policy's self time).
type timedRuntime struct {
	policy.Runtime
	c *policyClock
}

func (r *timedRuntime) Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool {
	sw := walltime.Start()
	ok := r.Runtime.Prefetch(ref, priority, issueTime)
	r.c.transfer += sw.Elapsed()
	return ok
}

func (r *timedRuntime) SyncLoad(refs []moe.ExpertRef, now float64) float64 {
	sw := walltime.Start()
	t := r.Runtime.SyncLoad(refs, now)
	r.c.transfer += sw.Elapsed()
	return t
}

func (r *timedRuntime) Promote(ref moe.ExpertRef, priority, issueTime float64) bool {
	sw := walltime.Start()
	ok := r.Runtime.Promote(ref, priority, issueTime)
	r.c.transfer += sw.Elapsed()
	return ok
}

func (r *timedRuntime) Demote(ref moe.ExpertRef, now float64) bool {
	sw := walltime.Start()
	ok := r.Runtime.Demote(ref, now)
	r.c.transfer += sw.Elapsed()
	return ok
}

// countedScorer counts eviction-scorer calls; timing each would cost more
// than the call.
type countedScorer struct {
	cache.Scorer
	c *policyClock
}

func (s *countedScorer) Score(ref moe.ExpertRef, m cache.Meta, now float64) float64 {
	s.c.scores++
	return s.Scorer.Score(ref, m, now)
}

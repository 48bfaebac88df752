// Request-level resilience: per-request timeouts, deterministic
// exponential-backoff retries with bounded jitter, optional hedged
// re-dispatch, a per-tenant retry budget, and failover routing around
// crashed instances.
//
// Every reaction to a completion, timeout, hedge deadline or retry
// deadline is a *resilience event* carrying the shared-clock time it is
// due, queued in (time, schedule-order) order and merged into the main
// loop between fault events and arrivals (see run). Nothing is ever
// applied at observation time: a completion observed after an engine
// step schedules an event at the completion's own timestamp, so each
// reaction takes effect at the copy's virtual completion time, after
// every earlier event.
//
// Backoff jitter is drawn from an RNG keyed by (seed, request ID,
// attempt) via internal/rng, never from the event interleaving, so the
// retry timing of one request is a pure function of the policy — the
// property the backoff determinism tests pin.
package cluster

import (
	"math"

	"finemoe/internal/rng"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// ResilienceOptions configures request-level fault tolerance. The zero
// value (Enabled false) disables tracking entirely and keeps the run
// loop byte-identical to a resilience-free cluster.
type ResilienceOptions struct {
	// Enabled turns on request tracking (timeouts, retries, hedging,
	// crash requeue). Individual mechanisms activate only when their
	// parameter is set.
	Enabled bool
	// TimeoutMS cancels a dispatched copy that has not completed this
	// long after dispatch and triggers a retry (0 = no timeout).
	TimeoutMS float64
	// MaxRetries bounds re-dispatch attempts per request after timeouts
	// (0 = fail on first timeout).
	MaxRetries int
	// HedgeAfterMS dispatches a second copy of a request to another
	// instance if the first has not completed this long after dispatch
	// (0 = no hedging). The first copy to finish wins; losers cancel.
	HedgeAfterMS float64
	// RetryBudgetFrac bounds retries per tenant to this fraction of the
	// tenant's offered requests (0 = unbounded). Exhausted budgets fail
	// requests instead of retrying.
	RetryBudgetFrac float64
	// RequeueOnCrash re-dispatches requests stranded on a crashed
	// instance when the crash is detected; otherwise they are lost.
	RequeueOnCrash bool
	// ReplaceOnCrash spawns a cold-store replacement instance (via
	// Options.EngineFactory) when a crash is detected and the fleet is
	// below MaxInstances.
	ReplaceOnCrash bool
	// Seed keys the backoff jitter stream.
	Seed uint64
}

// The retry backoff before attempt a (1-based) is
// min(backoffBaseMS·2^(a−1), backoffMaxMS), plus a deterministic jitter
// of up to jitterFrac of that.
const (
	backoffBaseMS = 50
	backoffMaxMS  = 2000
	jitterFrac    = 0.2
)

// resKind enumerates resilience event kinds.
type resKind uint8

const (
	// rkComplete resolves a copy's completion: first live copy to
	// complete wins the request; later completions are stale.
	rkComplete resKind = iota
	// rkTimeout cancels an overdue copy and decides whether to retry.
	rkTimeout
	// rkRetry dispatches a fresh copy after a backoff or crash requeue.
	rkRetry
	// rkHedge dispatches the speculative second copy.
	rkHedge
)

// resCopy is one dispatched copy of a tracked request.
type resCopy struct {
	// id is the copy's engine-visible request ID (the original ID for
	// the primary and retries; bit 63 set for the hedge copy).
	id uint64
	// inst is the stable ID of the instance the copy was dispatched to.
	inst int
	// live marks the copy as possibly still producing a completion.
	live bool
	// hedge marks the speculative copy.
	hedge bool
}

// resRecord tracks one request's resilience saga from first dispatch to
// resolution. Once resolved and held by no queued event, it goes back to
// the cluster's free list (freeRecord) with its copies' capacity.
type resRecord struct {
	orig    workload.Request
	copies  []resCopy
	attempt int
	hedged  bool
	done    bool
	failed  bool
	// held counts the queued events that point at the record; timeout,
	// hedge and retry events can outlive its resolution.
	held int
}

// resEvent is one queued resilience reaction.
type resEvent struct {
	t   float64
	k   resKind
	rec *resRecord
	// copyIdx selects the copy a timeout targets.
	copyIdx int
	// instIdx and m carry a completion's origin and metrics (rkComplete;
	// the record is resolved by ID lookup at processing time).
	instIdx int32
	m       serve.RequestMetrics
}

// staleKey identifies a completion that lost its hedge/retry race, so
// finalize can exclude it from fleet aggregates.
type staleKey struct {
	inst int
	id   uint64
}

// tenantBudget tracks one tenant's retry allowance.
type tenantBudget struct {
	offered int
	used    int
}

// hedgeBit distinguishes the hedge copy's engine-visible ID. Trace IDs
// keep bit 63 clear (tenant mixes use bits 32+).
const hedgeBit = 1 << 63

// scheduleRes queues ev, keeping the queue sorted by time with stable
// insertion (equal times keep schedule order).
func (c *Cluster) scheduleRes(ev resEvent) {
	if ev.rec != nil {
		ev.rec.held++
	}
	i := len(c.resEvents)
	for i > 0 && c.resEvents[i-1].t > ev.t {
		i--
	}
	c.resEvents = append(c.resEvents, resEvent{})
	copy(c.resEvents[i+1:], c.resEvents[i:])
	c.resEvents[i] = ev
}

// popResEvent removes and returns the earliest queued event, compacting
// in place so resolved records do not stay reachable through the backing
// array.
func (c *Cluster) popResEvent() resEvent {
	ev := c.resEvents[0]
	copy(c.resEvents, c.resEvents[1:])
	c.resEvents[len(c.resEvents)-1] = resEvent{}
	c.resEvents = c.resEvents[:len(c.resEvents)-1]
	return ev
}

// backoffMS computes the deterministic retry delay before attempt n
// (1-based): base·2^(n−1) capped at max, plus a jitter of up to
// jitterFrac of that, drawn from (Seed, request ID, attempt) — a pure
// function of the policy, independent of event interleaving.
func (c *Cluster) backoffMS(reqID uint64, attempt int) float64 {
	d := backoffBaseMS * math.Pow(2, float64(attempt-1))
	if d > backoffMaxMS {
		d = backoffMaxMS
	}
	u := rng.New(rng.Mix(c.res.Seed, reqID, uint64(attempt))).Float64()
	return d + d*jitterFrac*u
}

// budgetFor returns the tenant's budget entry, creating it on first use.
func (c *Cluster) budgetFor(tenant string) *tenantBudget {
	b := c.budgets[tenant]
	if b == nil {
		b = &tenantBudget{}
		c.budgets[tenant] = b
	}
	return b
}

// budgetAllows reports whether the tenant may spend another retry.
func (c *Cluster) budgetAllows(b *tenantBudget) bool {
	if c.res.RetryBudgetFrac <= 0 {
		return true
	}
	return float64(b.used) < c.res.RetryBudgetFrac*float64(b.offered)
}

// trackDispatch registers a freshly offered request's primary copy and
// schedules its timeout and hedge deadlines. Called from offer with the
// clock already clamped to the arrival.
func (c *Cluster) trackDispatch(req workload.Request, in *instance) {
	var rec *resRecord
	if n := len(c.recFree) - 1; n >= 0 {
		rec = c.recFree[n]
		c.recFree[n] = nil
		c.recFree = c.recFree[:n]
	} else {
		rec = &resRecord{}
	}
	rec.orig = req
	rec.copies = append(rec.copies, resCopy{id: req.ID, inst: in.ID, live: true})
	c.records[req.ID] = rec
	c.budgetFor(req.Tenant).offered++
	if c.res.TimeoutMS > 0 {
		c.scheduleRes(resEvent{t: c.now + c.res.TimeoutMS, k: rkTimeout, rec: rec})
	}
	if c.res.HedgeAfterMS > 0 {
		c.scheduleRes(resEvent{t: c.now + c.res.HedgeAfterMS, k: rkHedge, rec: rec})
	}
}

// failoverFleet snapshots the routable fleet excluding instances that
// already hold a copy of rec; when that excludes everything, the full
// routable fleet (nil when no instance is routable at all).
func (c *Cluster) failoverFleet(rec *resRecord) []InstanceState {
	fleet := c.activeStates()
	kept := fleet[:0]
	for _, st := range fleet {
		used := false
		for _, cp := range rec.copies {
			if cp.inst == st.ID {
				used = true
				break
			}
		}
		if !used {
			kept = append(kept, st)
		}
	}
	if len(kept) > 0 {
		return kept
	}
	if len(fleet) > 0 {
		return c.activeStates()
	}
	return nil
}

// dispatchCopy routes and submits one re-dispatched copy (retry or
// hedge) at time t, returning the chosen instance, or nil when no
// instance is routable.
func (c *Cluster) dispatchCopy(rec *resRecord, id uint64, t float64, hedge bool) *instance {
	fleet := c.failoverFleet(rec)
	if len(fleet) == 0 {
		return nil
	}
	req := rec.orig
	req.ID = id
	i := c.router.Route(req, t, fleet)
	if i < 0 || i >= len(fleet) {
		panic("cluster: router returned out-of-range instance")
	}
	in := c.instances[fleet[i].ID]
	in.Submitted++
	in.Engine.Submit(req)
	c.refreshEvent(in.ID)
	rec.copies = append(rec.copies, resCopy{id: id, inst: in.ID, live: true, hedge: hedge})
	if c.res.TimeoutMS > 0 {
		c.scheduleRes(resEvent{t: t + c.res.TimeoutMS, k: rkTimeout, rec: rec,
			copyIdx: len(rec.copies) - 1})
	}
	return in
}

// failRecord resolves rec as permanently failed.
func (c *Cluster) failRecord(rec *resRecord) {
	rec.done = true
	rec.failed = true
	c.failedReqs++
	c.dropRecord(rec)
	c.freeRecord(rec)
}

// dropRecord removes rec's ID lookups once resolved.
func (c *Cluster) dropRecord(rec *resRecord) {
	delete(c.records, rec.orig.ID)
	if rec.hedged {
		delete(c.records, rec.orig.ID|hedgeBit)
	}
}

// freeRecord recycles rec once it is resolved and no queued event holds
// it; the caller must not use rec afterwards.
func (c *Cluster) freeRecord(rec *resRecord) {
	if !rec.done || rec.held > 0 {
		return
	}
	*rec = resRecord{copies: rec.copies[:0]}
	c.recFree = append(c.recFree, rec)
}

// processResEvent applies one due resilience event.
func (c *Cluster) processResEvent(ev resEvent) {
	switch ev.k {
	case rkComplete:
		c.resolveCompletion(ev)
	case rkTimeout:
		c.applyTimeout(ev)
	case rkRetry:
		c.applyRetry(ev)
	case rkHedge:
		c.applyHedge(ev)
	}
	if ev.rec != nil {
		ev.rec.held--
		c.freeRecord(ev.rec)
	}
}

// resolveCompletion settles a copy's completion: the first live copy to
// complete wins its request, cancels every other live copy, and feeds
// the follow-up hook; completions of already-resolved requests are
// marked stale so finalize excludes them from fleet aggregates.
func (c *Cluster) resolveCompletion(ev resEvent) {
	in := c.instances[ev.instIdx]
	rec := c.records[ev.m.ID]
	if rec == nil || rec.done {
		c.stale[staleKey{inst: in.ID, id: ev.m.ID}] = true
		return
	}
	rec.done = true
	winner := -1
	for i := len(rec.copies) - 1; i >= 0; i-- {
		cp := &rec.copies[i]
		if cp.id == ev.m.ID && cp.inst == in.ID && cp.live {
			winner = i
			break
		}
	}
	if winner >= 0 && rec.copies[winner].hedge {
		c.hedgedWins++
	}
	for i := range rec.copies {
		cp := &rec.copies[i]
		if i == winner || !cp.live {
			continue
		}
		cp.live = false
		loser := c.instances[cp.inst]
		if loser.Engine.Cancel(cp.id) {
			c.refreshEvent(loser.ID)
		}
	}
	c.dropRecord(rec)
	defer c.freeRecord(rec)
	if c.followUp != nil {
		m := ev.m
		m.ID = rec.orig.ID // hedge winners report under the original ID
		fu, ok := c.followUp(m, rec.orig)
		if !ok {
			return
		}
		if fu.ArrivalMS < m.EndMS {
			fu.ArrivalMS = m.EndMS
		}
		c.inject(fu)
	}
}

// applyTimeout cancels an overdue copy and decides between retry and
// permanent failure.
func (c *Cluster) applyTimeout(ev resEvent) {
	rec := ev.rec
	if rec.done || !rec.copies[ev.copyIdx].live {
		return
	}
	cp := &rec.copies[ev.copyIdx]
	in := c.instances[cp.inst]
	if in.Engine.Cancel(cp.id) {
		cp.live = false
		c.refreshEvent(in.ID)
	}
	// else: the copy completed inside its final iteration's overshoot;
	// leave it live — its completion event may still win the request.
	c.logFault(ev.t, "timeout", cp.inst)
	b := c.budgetFor(rec.orig.Tenant)
	if rec.attempt >= c.res.MaxRetries || !c.budgetAllows(b) {
		if !anyLive(rec) {
			c.failRecord(rec)
		}
		return
	}
	rec.attempt++
	b.used++
	c.scheduleRes(resEvent{t: ev.t + c.backoffMS(rec.orig.ID, rec.attempt), k: rkRetry, rec: rec})
}

// applyRetry dispatches the next copy of a timed-out or crash-stranded
// request. Retries reuse the original request — same ID, same arrival
// time — so the winner's TTFT covers the whole saga.
func (c *Cluster) applyRetry(ev resEvent) {
	rec := ev.rec
	if rec.done {
		return
	}
	in := c.dispatchCopy(rec, rec.orig.ID, ev.t, false)
	if in == nil {
		if !anyLive(rec) {
			c.failRecord(rec)
		}
		return
	}
	c.retries++
	c.logFault(ev.t, "retry", in.ID)
}

// applyHedge dispatches the speculative second copy to another instance.
func (c *Cluster) applyHedge(ev resEvent) {
	rec := ev.rec
	if rec.done || rec.hedged {
		return
	}
	id := rec.orig.ID | hedgeBit
	in := c.dispatchCopy(rec, id, ev.t, true)
	if in == nil {
		return
	}
	rec.hedged = true
	c.records[id] = rec
	c.logFault(ev.t, "hedge", in.ID)
}

// anyLive reports whether any copy may still complete.
func anyLive(rec *resRecord) bool {
	for _, cp := range rec.copies {
		if cp.live {
			return true
		}
	}
	return false
}

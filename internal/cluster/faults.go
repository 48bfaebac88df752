// Fault-plan execution: compiled fault events (internal/faults) merge
// into the shared-clock loop ahead of every other event source at equal
// times, and their effects — crashed engines, degraded links, stranded
// requests, cold replacements — are applied by the loop itself, so the
// fault stream and everything downstream of it is a pure function of the
// plan, the trace and the seed.
package cluster

import (
	"finemoe/internal/faults"
	"finemoe/internal/workload"
)

// FaultRecord is one entry of a run's deterministic fault/resilience
// event log: injected faults (crash, detect, brownout, restore, stall),
// fleet reactions (replace, lost) and request-level reactions (timeout,
// retry, hedge), in processing order.
type FaultRecord struct {
	// TimeMS is the shared-clock time the event was applied.
	TimeMS float64
	// Kind names the event.
	Kind string
	// Instance is the affected instance's stable ID (faults.AllInstances
	// for fleet-wide brownouts/stalls).
	Instance int
}

// degWindow is one applied degradation window (brownout or stall), for
// DegradedMS accounting: n instances degraded over [start, end).
type degWindow struct {
	start, end float64
	n          int
}

// logFault appends one entry to the run's fault log.
func (c *Cluster) logFault(t float64, kind string, instance int) {
	c.flog = append(c.flog, FaultRecord{TimeMS: t, Kind: kind, Instance: instance})
}

// faultTarget returns the instance a fault plan names, or nil — fault
// plans may target IDs that never joined the fleet.
func (c *Cluster) faultTarget(id int) *instance {
	if id < 0 || id >= len(c.instances) {
		return nil
	}
	return c.instances[id]
}

// applyFault applies one compiled fault event at its scheduled time.
func (c *Cluster) applyFault(ev faults.Event) {
	if ev.TimeMS > c.now {
		c.now = ev.TimeMS
	}
	switch ev.Kind {
	case faults.KindCrash:
		c.applyCrash(ev)
	case faults.KindDetect:
		c.applyDetect(ev)
	case faults.KindBrownout, faults.KindRestore, faults.KindStall:
		c.applyLinkFault(ev)
	}
}

// applyCrash halts the target instance's engine. The fleet keeps routing
// to the dead instance until the matching detect event: submissions pile
// up unserved and are harvested then.
func (c *Cluster) applyCrash(ev faults.Event) {
	in := c.faultTarget(ev.Instance)
	if in == nil || in.Crashed {
		return
	}
	in.Crashed = true
	in.CrashedMS = ev.TimeMS
	in.Engine.Crash()
	c.refreshEvent(in.ID)
	c.crashes++
	c.logFault(ev.TimeMS, "crash", in.ID)
}

// applyDetect makes a crash visible: the instance leaves the routable
// fleet, stranded requests are requeued or lost per the resilience
// policy, and a cold replacement may spawn.
func (c *Cluster) applyDetect(ev faults.Event) {
	in := c.faultTarget(ev.Instance)
	if in == nil || !in.Crashed || in.Detected {
		return
	}
	in.Detected = true
	c.logFault(ev.TimeMS, "detect", in.ID)
	for _, req := range in.Engine.CrashHarvest() {
		c.strandedRequest(req, in, ev.TimeMS)
	}
	if c.res.ReplaceOnCrash && c.factory != nil && c.activeSize() < c.maxInst {
		// A cold replacement joins through the autoscaler's grow path
		// but logs its own ScaleEvent kind.
		fresh := c.spawn(ev.TimeMS)
		c.events = append(c.events, ScaleEvent{
			TimeMS: ev.TimeMS, Kind: "replace", Instance: fresh.ID, ActiveAfter: c.activeSize(),
		})
		c.logFault(ev.TimeMS, "replace", fresh.ID)
	}
}

// strandedRequest settles one request harvested from a crashed instance:
// requeue it (resilience with RequeueOnCrash and budget left) or count
// it lost.
func (c *Cluster) strandedRequest(req workload.Request, in *instance, t float64) {
	c.lostInFlight++
	if !c.resOn {
		c.failedReqs++
		c.logFault(t, "lost", in.ID)
		return
	}
	rec := c.records[req.ID]
	if rec == nil || rec.done {
		// Untracked or already resolved elsewhere (e.g. a hedge copy of a
		// request another instance finished): nothing to recover.
		c.logFault(t, "lost", in.ID)
		return
	}
	for i := len(rec.copies) - 1; i >= 0; i-- {
		cp := &rec.copies[i]
		if cp.id == req.ID && cp.inst == in.ID && cp.live {
			cp.live = false
			break
		}
	}
	b := c.budgetFor(rec.orig.Tenant)
	if c.res.RequeueOnCrash && c.budgetAllows(b) {
		b.used++
		c.scheduleRes(resEvent{t: t, k: rkRetry, rec: rec})
		return
	}
	c.logFault(t, "lost", in.ID)
	if !anyLive(rec) {
		c.failRecord(rec)
	}
}

// applyLinkFault applies a brownout, restore or stall to its target set:
// the named instance, or every non-crashed instance for AllInstances.
// Restores recompute the target set at restore time — an instance that
// crashed mid-window simply stays crashed. Link faults change only the
// duration of future transfers, never an engine's next event time, so no
// heap refresh is needed.
func (c *Cluster) applyLinkFault(ev faults.Event) {
	n := 0
	for _, in := range c.instances {
		if in.Crashed || (ev.Instance != faults.AllInstances && in.ID != ev.Instance) {
			continue
		}
		n++
		switch {
		case ev.Kind == faults.KindStall && ev.Link == faults.LinkPCIe:
			in.Engine.StallPCIeLinks(ev.EndMS)
		case ev.Kind == faults.KindStall:
			in.Engine.StallStagingLinks(ev.EndMS)
		case ev.Link == faults.LinkPCIe:
			in.Engine.ScalePCIeLinks(ev.Factor)
		default:
			in.Engine.ScaleStagingLinks(ev.Factor)
		}
	}
	if n > 0 && ev.Kind != faults.KindRestore {
		c.degraded = append(c.degraded, degWindow{start: ev.TimeMS, end: ev.EndMS, n: n})
	}
	c.logFault(ev.TimeMS, ev.Kind.String(), ev.Instance)
}

package cluster

import (
	"fmt"

	"finemoe/internal/metrics"
	"finemoe/internal/serve"
)

// InstanceResult is one replica's aggregated run.
type InstanceResult struct {
	// ID is the instance's stable identity.
	ID int
	// Submitted counts requests routed to the instance.
	Submitted int
	// StartedMS is the cluster time the instance joined the fleet
	// (0 for the initial fleet).
	StartedMS float64
	// Retired reports whether the autoscaler drained the instance away;
	// RetiredMS is the shrink-decision time.
	Retired   bool
	RetiredMS float64
	// Crashed reports a fault-plan crash; CrashedMS is the failure time.
	Crashed   bool
	CrashedMS float64
	// Result is the instance engine's own aggregation.
	Result *serve.Result
}

// Result aggregates a cluster run: per-instance engine results plus
// fleet-wide admission accounting and latency/hit-rate summaries over
// every served request.
type Result struct {
	// Admission and Router name the pipeline policies.
	Admission, Router string
	// Autoscaler names the fleet-sizing policy ("" when fixed).
	Autoscaler string
	// Instances holds each replica's result, in creation (ID) order,
	// including instances the autoscaler retired.
	Instances []InstanceResult
	// Admitted and Rejected count the admission stage's decisions.
	Admitted, Rejected int
	// FollowUps counts closed-loop requests injected by the FollowUp hook
	// (multi-turn session continuations), included in Admitted/Rejected.
	FollowUps int
	// Served counts requests that completed across the fleet.
	Served int
	// MeanTTFT and MeanTPOT are the fleet-wide headline latencies (ms).
	MeanTTFT, MeanTPOT float64
	// TTFT, TPOT and E2E are fleet-wide order statistics (ms).
	TTFT, TPOT, E2E metrics.Summary
	// Hits and Misses are the fleet totals of the engines' batch-level
	// expert-cache counts (one per unique expert per layer per
	// iteration), matching each instance's own Result.HitRate definition.
	Hits, Misses int
	// HitRate is Hits / (Hits + Misses) fleet-wide.
	HitRate float64
	// ScaleEvents is the autoscaler's resize history in decision order.
	ScaleEvents []ScaleEvent
	// PeakInstances is the largest routable fleet size reached.
	PeakInstances int
	// InstanceHours is the fleet's provisioned capacity in virtual
	// instance-hours: each instance counts from when it joined until it
	// finished draining (retired), stopped serving (crashed, capped at
	// the fleet makespan) or until the fleet makespan (active), so an
	// autoscaled run that shrinks early costs fewer instance-hours than a
	// fixed fleet of its peak size.
	InstanceHours float64
	// WallClockMS is the fleet makespan: the latest instance clock.
	WallClockMS float64

	// Availability accounting (all zero on fault-free runs).
	//
	// FailedRequests counts admitted requests that never completed:
	// stranded on a crashed instance without requeue, or exhausted of
	// retries/budget after timeouts. Retries counts re-dispatched copies
	// (timeout backoff retries and crash requeues); HedgedWins counts
	// requests whose speculative hedge copy finished first; LostInFlight
	// counts requests harvested from crashed instances (including ones
	// later recovered by requeue). Crashes counts applied crash events.
	FailedRequests, Retries, HedgedWins, LostInFlight, Crashes int
	// DegradedMS integrates brownout/stall exposure: the sum over applied
	// degradation windows of (window length × instances degraded),
	// clipped to the fleet makespan.
	DegradedMS float64
	// FaultLog is the run's deterministic fault/resilience event stream,
	// in processing order (empty without a fault plan).
	FaultLog []FaultRecord
}

// finalize aggregates the drained fleet into a cluster Result.
func (c *Cluster) finalize() *Result {
	res := &Result{
		Admission:   c.admission.Name(),
		Router:      c.router.Name(),
		Admitted:    c.admitted,
		Rejected:    c.rejected,
		FollowUps:   c.followUps,
		ScaleEvents: c.events,
	}
	if c.scaler != nil {
		res.Autoscaler = c.scaler.Name()
	}
	res.FailedRequests = c.failedReqs
	res.Retries = c.retries
	res.HedgedWins = c.hedgedWins
	res.LostInFlight = c.lostInFlight
	res.Crashes = c.crashes
	res.FaultLog = c.flog
	// Latency vectors are chunked columns, not append-grown flat slices:
	// at multi-million-request horizons a flat slice copies every sample
	// O(log n) times across regrowths and transiently holds ~3× the
	// column during the largest one, while the chunked column writes each
	// sample once. Summaries stay byte-identical — Column.Summarize
	// funnels into the same sorted-sample math as metrics.Summarize.
	var ttfts, tpots, e2es metrics.Column
	for _, in := range c.instances {
		ir := in.Engine.Finalize()
		res.Instances = append(res.Instances, InstanceResult{
			ID: in.ID, Submitted: in.Submitted,
			StartedMS: in.StartedMS, Retired: in.Retiring, RetiredMS: in.RetiredMS,
			Crashed: in.Crashed, CrashedMS: in.CrashedMS,
			Result: ir,
		})
		for _, q := range ir.Requests {
			if len(c.stale) > 0 && c.stale[staleKey{inst: in.ID, id: q.ID}] {
				// The losing completion of a hedge/retry race: its request
				// was already served elsewhere, so it does not count again
				// toward fleet service or latency aggregates (it stays in
				// the instance's own Result).
				continue
			}
			res.Served++
			ttfts.Append(q.TTFTms)
			e2es.Append(q.E2Ems)
			if q.OutputTokens > 1 {
				tpots.Append(q.TPOTms)
			}
		}
		// Engine-level counts (batch-deduplicated), not per-request sums:
		// the fleet hit rate must agree with the instances' own HitRate
		// definition, so a 1-instance cluster reports the engine's rate.
		res.Hits += ir.Hits
		res.Misses += ir.Misses
		if ir.WallClockMS > res.WallClockMS {
			res.WallClockMS = ir.WallClockMS
		}
	}
	res.TTFT = ttfts.Summarize()
	res.TPOT = tpots.Summarize()
	res.E2E = e2es.Summarize()
	res.MeanTTFT = res.TTFT.Mean
	res.MeanTPOT = res.TPOT.Mean
	if res.Hits+res.Misses > 0 {
		res.HitRate = float64(res.Hits) / float64(res.Hits+res.Misses)
	} else {
		res.HitRate = 1
	}
	res.PeakInstances = c.initial
	for _, ev := range c.events {
		if ev.ActiveAfter > res.PeakInstances {
			res.PeakInstances = ev.ActiveAfter
		}
	}
	for _, in := range c.instances {
		end := res.WallClockMS
		if in.Crashed {
			// A crashed instance stops serving (and costing capacity) at
			// the failure itself; detection latency only delays the fleet's
			// reaction. A crash after the fleet's last event bills only up
			// to the makespan.
			end = min(in.CrashedMS, res.WallClockMS)
		} else if in.Retiring {
			// A retired instance stops costing capacity once it has both
			// been told to drain and finished its last request.
			end = in.RetiredMS
			if t := in.Engine.Now(); t > end {
				end = t
			}
		}
		if span := end - in.StartedMS; span > 0 {
			res.InstanceHours += span / 3.6e6
		}
	}
	for _, w := range c.degraded {
		start, end := w.start, w.end
		if start > res.WallClockMS {
			start = res.WallClockMS
		}
		if end > res.WallClockMS {
			end = res.WallClockMS
		}
		res.DegradedMS += (end - start) * float64(w.n)
	}
	return res
}

// String renders a one-line fleet summary.
func (r *Result) String() string {
	scale := ""
	if r.Autoscaler != "" {
		scale = fmt.Sprintf(", %s peak %d (%d resizes), %.4f inst-h",
			r.Autoscaler, r.PeakInstances, len(r.ScaleEvents), r.InstanceHours)
	}
	return fmt.Sprintf(
		"cluster[%d] %s/%s: served %d, rejected %d, TTFT %.0f ms, TPOT %.1f ms, hit rate %.3f%s",
		len(r.Instances), r.Admission, r.Router, r.Served, r.Rejected,
		r.MeanTTFT, r.MeanTPOT, r.HitRate, scale)
}

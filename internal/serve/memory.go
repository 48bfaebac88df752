package serve

import (
	"finemoe/internal/cache"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
)

// Tiered-memory residency: the per-expert state machine over the ordered
// tier list GPU HBM -> host tiers (DRAM -> NVMe ...). An expert's state
// is the topmost tier holding a copy, plus at most one tracked transfer
// per link moving it upward. Movements:
//
//   - fetch (miss): route the expert up through every intermediate tier
//     on the distinct contended links — a blocking staging copy per hop
//     (NVMe->DRAM on the shared staging link), then the PCIe upload.
//   - prefetch: the same route, asynchronous — each staging completion
//     chains the next hop with the original priority.
//   - demotion: a GPU-cache eviction drops the expert into DRAM (free:
//     weights are immutable, the host copy is clean); a DRAM eviction
//     drops to the backing tier, which always holds every expert.
//
// The degenerate two-tier hierarchy (unbounded DRAM) makes every routing
// decision trivial — hostLevel is always 0, no staging links exist, pins
// are no-ops — so the engine's arithmetic is byte-identical to the
// pre-tiering code (pinned by the parity goldens).

// buildHostTiers materializes the hierarchy's host-side residency sets.
func buildHostTiers(h memsim.Hierarchy, cfg moe.Config, scorer cache.Scorer) []*cache.HostTier {
	tiers := make([]*cache.HostTier, 0, h.Depth())
	for _, spec := range h.Host {
		if spec.Unbounded() {
			tiers = append(tiers, cache.NewUnboundedHostTier(spec.Name))
			continue
		}
		capExperts := int(spec.CapacityBytes / cfg.ExpertBytes())
		tiers = append(tiers, cache.NewHostTier(spec.Name, capExperts, scorer))
	}
	return tiers
}

// warmHostTiers populates bounded host tiers at t=0: a served model's
// host memory starts loaded (weights arrive through DRAM at startup),
// not empty, so runs do not open with an unrepresentative NVMe
// cold-start storm. The fill stripes expert-major (expert j of every
// layer before expert j+1) so each layer gets an even share of the warm
// set; the tier's scorer reshapes residency as traffic flows.
func warmHostTiers(tiers []*cache.HostTier, cfg moe.Config) {
	for _, t := range tiers {
		if t.Unbounded() {
			continue
		}
		n := t.Capacity()
		warmed := 0
		for j := 0; j < cfg.RoutedExperts && warmed < n; j++ {
			for l := 0; l < cfg.Layers && warmed < n; l++ {
				t.Warm(moe.ExpertRef{Layer: l, Expert: j})
				warmed++
			}
		}
	}
}

// hostLevel returns the topmost host tier holding ref (0 = DRAM). The
// bottom tier is unbounded, so the scan always terminates with a hit.
//
//finemoe:hotpath
func (e *Engine) hostLevel(ref moe.ExpertRef) int {
	for i, t := range e.host {
		if t.Contains(ref) {
			return i
		}
	}
	// Unreachable: the hierarchy validator guarantees an unbounded
	// bottom tier.
	return len(e.host) - 1
}

// hostInsert lands a staged copy in host tier level, dropping that
// tier's evictions to their backing copies (free). Reports whether the
// insert took (a strict tier saturated with pinned uploads refuses it;
// the chain still proceeds through the transient bounce buffer).
//
//finemoe:hotpath
func (e *Engine) hostInsert(level int, ref moe.ExpertRef, now float64) bool {
	evicted, ok := e.host[level].Insert(ref, now)
	e.tierDrops[level] += len(evicted)
	return ok
}

// demoteFromGPU drops a GPU-cache eviction into DRAM (host tier 0).
//
//finemoe:hotpath
func (e *Engine) demoteFromGPU(ref moe.ExpertRef, now float64) {
	evicted, _ := e.host[0].Demote(ref, now)
	e.tierDrops[0] += len(evicted)
}

// gpuInsert makes ref GPU-resident, demoting the cache's evictions into
// the host hierarchy.
//
//finemoe:hotpath
func (e *Engine) gpuInsert(ref moe.ExpertRef, now float64) {
	for _, ev := range e.caches.Insert(ref, now) {
		e.demoteFromGPU(ev, now)
	}
}

// memSpillAlpha is the EMA step of the spill-fraction signal: ~32
// fetches of history, enough to smooth per-layer noise while reacting
// within an iteration or two of the working set outgrowing DRAM.
const memSpillAlpha = 1.0 / 32

// noteMemFetch folds one fetch's routing depth into the spill EMA:
// sample 1 when the expert had to come from below DRAM, 0 on a DRAM hit.
//
//finemoe:hotpath
func (e *Engine) noteMemFetch(level int) {
	sample := 0.0
	if level > 0 {
		sample = 1
	}
	e.memSpill += memSpillAlpha * (sample - e.memSpill)
}

// fetchOnDemand blocks until ref is upload-complete on its GPU and
// returns that time: staging copies hop the expert up through every
// intermediate tier, then the owning GPU's PCIe link performs the final
// upload (the seed's entire on-demand path when ref is already
// DRAM-resident).
//
//finemoe:hotpath
func (e *Engine) fetchOnDemand(ref moe.ExpertRef, now float64) float64 {
	t := now
	e.noteMemFetch(e.hostLevel(ref))
	for level := e.hostLevel(ref); level >= 1; level-- {
		t = e.cluster.StageOnDemand(level-1, ref, t)
		e.hostInsert(level-1, ref, t)
		// The blocking route supersedes any pending asynchronous chain.
		delete(e.pendingUp, ref)
	}
	e.host[0].Touch(ref, t)
	e.host[0].Pin(ref)
	return e.cluster.OnDemand(ref, t)
}

// --- tier-aware policy.Runtime surface --------------------------------------

// Tier implements policy.Runtime: the topmost tier where ref is
// resident (0 = GPU HBM, 1 = DRAM, ...).
//
//finemoe:hotpath
func (e *Engine) Tier(ref moe.ExpertRef) int {
	if e.caches.Contains(ref) {
		return 0
	}
	return 1 + e.hostLevel(ref)
}

// Promote implements policy.Runtime: stage ref one tier upward.
//
//finemoe:hotpath
func (e *Engine) Promote(ref moe.ExpertRef, priority, issueTime float64) bool {
	if e.caches.Contains(ref) {
		return false
	}
	if e.cluster.Tracked(ref) || e.cluster.StageTracked(ref) {
		return false
	}
	level := e.hostLevel(ref)
	if level == 0 {
		ok := e.cluster.Prefetch(ref, priority, issueTime)
		if ok {
			e.noteMemFetch(level)
			e.host[0].Touch(ref, issueTime)
			e.host[0].Pin(ref)
		}
		return ok
	}
	ok := e.cluster.StagePrefetch(level-1, ref, priority, issueTime)
	if ok {
		e.noteMemFetch(level)
	}
	return ok
}

// Demote implements policy.Runtime: drop ref's topmost resident copy
// one tier down at time now. A GPU copy pinned by the executing layer
// is in use and never dropped.
//
//finemoe:hotpath
func (e *Engine) Demote(ref moe.ExpertRef, now float64) bool {
	if e.caches.Contains(ref) {
		if e.caches.Pinned(ref) {
			return false
		}
		e.caches.Remove(ref)
		e.demoteFromGPU(ref, now)
		return true
	}
	for _, t := range e.host {
		if t.Remove(ref) {
			return true
		}
	}
	return false
}

// MemoryPressure reports the host DRAM tier's thrash level in [0, 1]:
// the decayed fraction of recent expert fetches staged from below DRAM
// (0 under the degenerate unbounded configuration, where no fetch can
// spill; approaching 1 when the working set thrashes through the NVMe
// staging link). The cluster's instance states and the live server's
// stats read it.
func (e *Engine) MemoryPressure() float64 {
	if e.host[0].Unbounded() {
		return 0
	}
	return e.memSpill
}

// --- per-tier statistics ----------------------------------------------------

// TierStat reports one memory tier's residency and transfer activity.
// Tiers are ordered topmost first: index 0 is the GPU expert cache
// (HBM), index 1 the host DRAM tier, deeper indices the slower tiers.
type TierStat struct {
	// Name labels the tier ("HBM", "DRAM", "NVMe").
	Name string
	// CapacityExperts bounds the tier in whole experts (-1 = unbounded).
	CapacityExperts int
	// ResidentExperts and ResidentBytes are end-of-run residency (the
	// full expert population for an unbounded backing tier).
	ResidentExperts int
	ResidentBytes   int64
	// Pressure is the occupancy fraction (0 for unbounded tiers).
	Pressure float64
	// Promotions counts copies that landed in this tier from below;
	// Demotions copies dropped into it from above; Drops entries it
	// pushed down to their backing copies under capacity pressure;
	// RejectedInserts copies refused by a pin-saturated strict tier.
	Promotions, Demotions, Drops, RejectedInserts int
	// Link is the cumulative activity of the link feeding this tier
	// from below: the PCIe uploads for tier 0, the shared staging link
	// for intermediate host tiers, zero for the bottom tier.
	Link memsim.LinkStats
}

// TierStats snapshots the hierarchy's per-tier statistics, topmost tier
// first. Safe to call mid-run (the live /v1/stats surface does).
func (e *Engine) TierStats() []TierStat {
	cs := e.caches.Stats()
	gpu := TierStat{
		Name:            "HBM",
		CapacityExperts: e.caches.TotalCapacity(),
		ResidentExperts: cs.CurrentResident,
		ResidentBytes:   int64(cs.CurrentResident) * e.cfg.ExpertBytes(),
		Promotions:      cs.Insertions,
		Drops:           cs.Evictions,
		RejectedInserts: cs.RejectedInserts,
		Link:            e.cluster.Stats(),
	}
	if gpu.CapacityExperts > 0 {
		gpu.Pressure = float64(gpu.ResidentExperts) / float64(gpu.CapacityExperts)
	}
	out := []TierStat{gpu}
	staging := e.cluster.StagingStats()
	totalExperts := e.cfg.Layers * e.cfg.RoutedExperts
	for j, t := range e.host {
		ts := TierStat{
			Name:            t.Name(),
			CapacityExperts: t.Capacity(),
			ResidentExperts: t.Len(),
			Pressure:        t.Pressure(),
			Promotions:      t.Promotions(),
			Demotions:       t.Demotions(),
			Drops:           e.tierDrops[j],
			RejectedInserts: t.CacheStats().RejectedInserts,
		}
		if t.Unbounded() {
			ts.ResidentExperts = totalExperts
		}
		ts.ResidentBytes = int64(ts.ResidentExperts) * e.cfg.ExpertBytes()
		if j < len(staging) {
			ts.Link = staging[j]
		}
		out = append(out, ts)
	}
	return out
}

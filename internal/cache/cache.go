// Package cache implements the Expert Cache (§4.5): per-GPU capacity-bounded
// residency of expert weights with pluggable eviction policies.
//
// The paper compares three eviction disciplines on this cache: LRU
// (Mixtral-Offloading), LFU (MoE-Infinity), and FineMoE's searched-map
// priority 1/(p·freq). Eviction is expressed through the Scorer interface so
// the ablation of Fig. 14b swaps policies without touching cache mechanics.
package cache

import (
	"fmt"

	"finemoe/internal/moe"
)

// Meta is the per-entry bookkeeping exposed to eviction scorers.
type Meta struct {
	// Freq counts cache hits on the entry (LFU's signal).
	Freq int
	// LastUse is the virtual time of the last hit (LRU's signal).
	LastUse float64
	// Inserted is the virtual time the entry became resident.
	Inserted float64
	// Pinned entries are in use by the current layer and are evicted
	// only as a last resort.
	Pinned bool
}

// Scorer ranks cache entries for eviction; the entry with the highest score
// is evicted first.
type Scorer interface {
	// Score returns the eviction priority of a resident expert.
	Score(ref moe.ExpertRef, m Meta, now float64) float64
	// Name identifies the policy in reports.
	Name() string
}

// LRU evicts the least-recently-used expert. The paper notes LRU fights the
// layer-sequential access pattern of MoE inference (§4.5), which Fig. 14b's
// ablation confirms.
type LRU struct{}

// Score implements Scorer: older last-use evicts first.
func (LRU) Score(_ moe.ExpertRef, m Meta, now float64) float64 { return now - m.LastUse }

// Name implements Scorer.
func (LRU) Name() string { return "LRU" }

// LFU evicts the least-frequently-used expert (MoE-Infinity's policy).
// Frequency is measured as a use rate over residency time rather than a raw
// count: without aging, long-resident entries with stale high counts would
// permanently starve fresh prefetches (the classic LFU pathology), which no
// production LFU implements.
type LFU struct{}

// Score implements Scorer: the lowest use rate evicts first.
func (LFU) Score(_ moe.ExpertRef, m Meta, now float64) float64 {
	age := now - m.Inserted
	if age < 1 {
		age = 1
	}
	rate := float64(m.Freq) / age
	return 1 / (rate + 1e-9)
}

// Name implements Scorer.
func (LFU) Name() string { return "LFU" }

// Stats aggregates cache activity counters.
type Stats struct {
	Hits, Misses    int
	Insertions      int
	Evictions       int
	PinnedEvictions int
	RejectedInserts int
	PeakResidentExp int
	CurrentResident int
}

// Cache is a single device's expert cache, sized in whole experts (the
// paper's §3.3 notes all experts of a model share one weight size, so byte
// capacity reduces to an expert-count capacity).
//
// Residency is a dense [layer][expert] table rather than a map: the
// expert universe is small (Layers × RoutedExperts), every hot operation
// — Contains, Lookup, Pin, and above all the per-insert victim scan —
// becomes an array index or an in-order sweep, and scanning in ascending
// (layer, expert) order makes eviction deterministic by construction
// instead of by a tie-break against map iteration order.
type Cache struct {
	capacity int
	scorer   Scorer
	stats    Stats
	// byLayer[l][e] is the residency record of expert (l, e), nil when
	// not resident. Rows grow on demand to the largest ref seen, so the
	// cache needs no up-front model shape.
	byLayer [][]*Meta
	// n counts resident experts.
	n int
	// strictPinned refuses to evict pinned entries: an insert that finds
	// every entry pinned is rejected (and counted) instead of evicting a
	// pinned victim. Host DRAM tiers run strict — a pinned entry there is
	// the source of an in-flight DMA and must not be dropped — while the
	// GPU cache keeps the lenient last-resort semantics.
	strictPinned bool
	// evictScratch backs the slice Insert returns, reused across calls so
	// the serving loop's insert path stays allocation-free after warmup.
	evictScratch []moe.ExpertRef
	// metaFree recycles Meta records from evicted entries; Insert reuses
	// them before allocating. Meta pointers never leave the package, so an
	// evicted entry's record cannot be aliased by callers.
	metaFree []*Meta
}

// New builds a cache holding at most capacity experts under the given
// eviction scorer. A zero capacity cache holds nothing (DeepSpeed-style
// pure on-demand configurations still use a small cache; capacity 0 is
// allowed for stress tests).
func New(capacity int, scorer Scorer) *Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
	if scorer == nil {
		panic("cache: nil scorer")
	}
	return &Cache{capacity: capacity, scorer: scorer}
}

// entry returns the residency record of ref, nil when not resident.
//
//finemoe:hotpath
func (c *Cache) entry(ref moe.ExpertRef) *Meta {
	if ref.Layer >= len(c.byLayer) {
		return nil
	}
	row := c.byLayer[ref.Layer]
	if ref.Expert >= len(row) {
		return nil
	}
	return row[ref.Expert]
}

// setEntry installs m as ref's record, growing the table to cover ref.
//
//finemoe:allocok grows the residency table only until it covers the model's expert universe
func (c *Cache) setEntry(ref moe.ExpertRef, m *Meta) {
	if ref.Layer < 0 || ref.Expert < 0 {
		panic(fmt.Sprintf("cache: negative expert ref %+v", ref))
	}
	for ref.Layer >= len(c.byLayer) {
		c.byLayer = append(c.byLayer, nil)
	}
	row := c.byLayer[ref.Layer]
	for ref.Expert >= len(row) {
		row = append(row, nil)
	}
	row[ref.Expert] = m
	c.byLayer[ref.Layer] = row
}

// NewStrictPinned builds a cache that never evicts pinned entries: an
// insert finding only pinned victims is rejected and counted in
// RejectedInserts rather than evicting one as a last resort.
func NewStrictPinned(capacity int, scorer Scorer) *Cache {
	c := New(capacity, scorer)
	c.strictPinned = true
	return c
}

// Capacity returns the expert-count capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident experts.
func (c *Cache) Len() int { return c.n }

// Contains reports residency without touching usage stats.
//
//finemoe:hotpath
func (c *Cache) Contains(ref moe.ExpertRef) bool {
	return c.entry(ref) != nil
}

// Lookup records a hit or miss at time now and returns residency. Hits
// update LFU/LRU bookkeeping.
//
//finemoe:hotpath
func (c *Cache) Lookup(ref moe.ExpertRef, now float64) bool {
	if m := c.entry(ref); m != nil {
		m.Freq++
		m.LastUse = now
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Pin marks a resident expert as in use by the executing layer.
// Pinning a non-resident expert is a no-op.
//
//finemoe:hotpath
func (c *Cache) Pin(ref moe.ExpertRef) {
	if m := c.entry(ref); m != nil {
		m.Pinned = true
	}
}

// Unpin clears a pin.
//
//finemoe:hotpath
func (c *Cache) Unpin(ref moe.ExpertRef) {
	if m := c.entry(ref); m != nil {
		m.Pinned = false
	}
}

// UnpinAll clears every pin (called at layer completion).
//
//finemoe:hotpath
func (c *Cache) UnpinAll() {
	for _, row := range c.byLayer {
		for _, m := range row {
			if m != nil {
				m.Pinned = false
			}
		}
	}
}

// Insert makes ref resident at time now, evicting by scorer as needed, and
// returns the evicted experts. Inserting a resident expert refreshes
// nothing and returns nil. If capacity is zero the insert is rejected.
// The returned slice aliases an internal scratch buffer: it is valid only
// until the next Insert on this cache — consume it before re-inserting.
func (c *Cache) Insert(ref moe.ExpertRef, now float64) []moe.ExpertRef {
	if c.capacity == 0 {
		c.stats.RejectedInserts++
		return nil
	}
	if c.Contains(ref) {
		return nil
	}
	c.evictScratch = c.evictScratch[:0]
	for c.n >= c.capacity {
		victim, ok := c.pickVictim(now, true)
		if !ok {
			if c.strictPinned {
				// Every entry is pinned (an in-flight DMA source);
				// refuse the insert rather than drop one mid-copy.
				c.stats.RejectedInserts++
				return c.evictScratch
			}
			// Everything is pinned; evict anyway (last resort) so
			// the activated expert can be served — but count it.
			victim, ok = c.pickVictim(now, false)
			if !ok {
				c.stats.RejectedInserts++
				return c.evictScratch
			}
			c.stats.PinnedEvictions++
		}
		c.metaFree = append(c.metaFree, c.byLayer[victim.Layer][victim.Expert])
		c.byLayer[victim.Layer][victim.Expert] = nil
		c.n--
		c.stats.Evictions++
		c.evictScratch = append(c.evictScratch, victim)
	}
	m := c.newMeta()
	*m = Meta{Freq: 1, LastUse: now, Inserted: now}
	c.setEntry(ref, m)
	c.n++
	c.stats.Insertions++
	if c.n > c.stats.PeakResidentExp {
		c.stats.PeakResidentExp = c.n
	}
	return c.evictScratch
}

// newMeta pops the Meta free list, allocating only while the cache warms
// toward capacity (after that every insert evicts, recycling a record).
//
//finemoe:allocok grows the Meta free list only until the cache reaches capacity; steady-state inserts recycle the victim's record
func (c *Cache) newMeta() *Meta {
	if n := len(c.metaFree); n > 0 {
		m := c.metaFree[n-1]
		c.metaFree = c.metaFree[:n-1]
		return m
	}
	return &Meta{}
}

// pickVictim returns the highest-scoring resident, skipping pinned ones
// when skipPinned is set. The scan runs in ascending (layer, expert)
// order and replaces only on a strictly greater score, so ties go to the
// lowest (layer, expert) ref: the victim order TestDeterministicTieBreak
// and the goldens pin.
func (c *Cache) pickVictim(now float64, skipPinned bool) (moe.ExpertRef, bool) {
	var best moe.ExpertRef
	bestScore := 0.0
	found := false
	for l, row := range c.byLayer {
		for e, m := range row {
			if m == nil || (skipPinned && m.Pinned) {
				continue
			}
			ref := moe.ExpertRef{Layer: l, Expert: e}
			s := c.scorer.Score(ref, *m, now)
			if !found || s > bestScore {
				best, bestScore, found = ref, s, true
			}
		}
	}
	return best, found
}

// Pinned reports whether a resident expert is pinned by the executing
// layer (false for non-resident experts).
func (c *Cache) Pinned(ref moe.ExpertRef) bool {
	m := c.entry(ref)
	return m != nil && m.Pinned
}

// Remove drops a resident expert without charging an eviction (the
// tiered-memory demotion path accounts the movement itself). Reports
// whether the expert was resident.
func (c *Cache) Remove(ref moe.ExpertRef) bool {
	m := c.entry(ref)
	if m == nil {
		return false
	}
	c.metaFree = append(c.metaFree, m)
	c.byLayer[ref.Layer][ref.Expert] = nil
	c.n--
	return true
}

// Stats returns a copy of the counters with CurrentResident refreshed.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.CurrentResident = c.n
	return s
}

// Residents returns all resident experts in (layer, expert) order — the
// dense table's natural scan order. Intended for tests and debugging.
func (c *Cache) Residents() []moe.ExpertRef {
	out := make([]moe.ExpertRef, 0, c.n)
	for l, row := range c.byLayer {
		for e, m := range row {
			if m != nil {
				out = append(out, moe.ExpertRef{Layer: l, Expert: e})
			}
		}
	}
	return out
}

// Set shards an expert cache across the GPUs of an expert-parallel cluster:
// expert (l,j) resides only on its owning device, so each device gets an
// equal share of the total cache budget.
type Set struct {
	cfg    moe.Config
	n      int
	caches []*Cache
}

// NewSet splits a total byte budget across n devices. Each device's
// capacity is budget/n bytes divided by the model's expert size.
func NewSet(cfg moe.Config, n int, totalBytes int64, scorer Scorer) *Set {
	if n <= 0 {
		panic("cache: non-positive device count")
	}
	perDev := int(totalBytes / int64(n) / cfg.ExpertBytes())
	s := &Set{cfg: cfg, n: n}
	for i := 0; i < n; i++ {
		s.caches = append(s.caches, New(perDev, scorer))
	}
	return s
}

// For returns the device cache owning ref.
func (s *Set) For(ref moe.ExpertRef) *Cache { return s.caches[s.cfg.OwnerGPU(ref, s.n)] }

// Device returns device i's cache.
func (s *Set) Device(i int) *Cache { return s.caches[i] }

// Devices returns the number of shards.
func (s *Set) Devices() int { return s.n }

// Contains reports residency of ref.
func (s *Set) Contains(ref moe.ExpertRef) bool { return s.For(ref).Contains(ref) }

// Lookup records a hit/miss on the owning device.
func (s *Set) Lookup(ref moe.ExpertRef, now float64) bool { return s.For(ref).Lookup(ref, now) }

// Insert makes ref resident on its owning device.
func (s *Set) Insert(ref moe.ExpertRef, now float64) []moe.ExpertRef {
	return s.For(ref).Insert(ref, now)
}

// Remove drops ref from its owning device without charging an eviction.
func (s *Set) Remove(ref moe.ExpertRef) bool { return s.For(ref).Remove(ref) }

// Pinned reports whether ref is pinned on its owning device.
func (s *Set) Pinned(ref moe.ExpertRef) bool { return s.For(ref).Pinned(ref) }

// Pin pins ref on its owning device.
func (s *Set) Pin(ref moe.ExpertRef) { s.For(ref).Pin(ref) }

// Unpin clears ref's pin on its owning device.
func (s *Set) Unpin(ref moe.ExpertRef) { s.For(ref).Unpin(ref) }

// UnpinAll clears pins on every device.
func (s *Set) UnpinAll() {
	for _, c := range s.caches {
		c.UnpinAll()
	}
}

// Stats sums counters across devices.
func (s *Set) Stats() Stats {
	var out Stats
	for _, c := range s.caches {
		cs := c.Stats()
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Insertions += cs.Insertions
		out.Evictions += cs.Evictions
		out.PinnedEvictions += cs.PinnedEvictions
		out.RejectedInserts += cs.RejectedInserts
		out.PeakResidentExp += cs.PeakResidentExp
		out.CurrentResident += cs.CurrentResident
	}
	return out
}

// TotalCapacity returns the cluster-wide expert capacity.
func (s *Set) TotalCapacity() int {
	n := 0
	for _, c := range s.caches {
		n += c.Capacity()
	}
	return n
}

// Package core implements the paper's primary contribution: the expert map
// data structure (§4.1), the Expert Map Store with redundancy-scored
// deduplication (§4.4), the semantic/trajectory Expert Map Searcher (§4.2),
// similarity-aware expert selection with the dynamic threshold δ (§4.3),
// the prefetch/eviction priorities (§4.5), and the FineMoE serving policy
// that ties them together.
package core

import (
	"math"
	"sort"
	"sync"

	"finemoe/internal/moe"
	"finemoe/internal/rng"
	"finemoe/internal/tensor"
)

// ExpertMap records one inference iteration in fine granularity: the gate
// network's probability distribution over experts at every layer, plus the
// iteration's semantic embedding (§4.1). Probabilities are kept in
// float32, matching the paper's PyTorch/NumPy ndarray storage and its
// Fig. 18 memory accounting.
//
// A stored map is read-only to everyone but its store, which overwrites
// the maps it built once it has evicted them; Store says how long a map
// obtained from it stays valid.
type ExpertMap struct {
	// ReqID and Iter identify the iteration that produced the map.
	ReqID uint64
	Iter  int
	// Sem is the iteration's semantic embedding (SemDim floats).
	Sem []float32
	// Traj is the L×J row-major matrix of per-layer gate distributions.
	Traj []float32
	// prefixNorm2[l] caches ||Traj[0 : (l+1)·J]||² so trajectory-prefix
	// cosine search is O(J) per layer instead of O(l·J).
	prefixNorm2 []float64
	// semNorm2 caches ||Sem||², accumulated in CosineF32's element order,
	// so redundancy scoring pays one fused dot per cosine instead of
	// three accumulations (see tensor.DotF32's bit-identity contract).
	semNorm2 float64
}

// NewExpertMap builds a map from an observed iteration.
func NewExpertMap(cfg moe.Config, reqID uint64, it *moe.Iteration) *ExpertMap {
	m := new(ExpertMap)
	m.fill(cfg, reqID, it)
	return m
}

// fill overwrites m with an observed iteration, reusing m's buffers when
// they are large enough. Every map built from an iteration goes through
// here, so a recycled map holds the same bits as a fresh one.
func (m *ExpertMap) fill(cfg moe.Config, reqID uint64, it *moe.Iteration) {
	if len(it.Probs) != cfg.Layers {
		panic("core: iteration layer count differs from the model's")
	}
	m.ReqID, m.Iter = reqID, it.Index
	if cap(m.Sem) < len(it.Semantic) {
		m.Sem = make([]float32, len(it.Semantic))
	}
	m.Sem = m.Sem[:len(it.Semantic)]
	for i, x := range it.Semantic {
		m.Sem[i] = float32(x)
	}
	j := cfg.RoutedExperts
	if cap(m.Traj) < cfg.Layers*j {
		m.Traj = make([]float32, cfg.Layers*j)
	}
	m.Traj = m.Traj[:cfg.Layers*j]
	for l, p := range it.Probs {
		if len(p) != j {
			panic("core: layer expert count differs from the model's")
		}
		for k, v := range p {
			m.Traj[l*j+k] = float32(v)
		}
	}
	m.buildPrefixNorms(j)
	m.semNorm2 = tensor.Norm2F32(m.Sem)
}

// RandomExpertMap synthesizes a structurally valid expert map from a seed:
// a random unit semantic embedding and per-layer random gate distributions.
// It skips the gate-network simulation entirely, so large stores (the 10K
// population of the search benchmarks, the parity property tests' seeded
// random stores) can be built in microseconds per map.
func RandomExpertMap(cfg moe.Config, reqID uint64, seed uint64) *ExpertMap {
	r := rng.New(rng.Mix(0x5e4c, seed, reqID))
	sem := make([]float64, cfg.SemDim)
	r.UnitVec(sem)
	m := &ExpertMap{
		ReqID: reqID,
		Sem:   tensor.Float32s(sem),
		Traj:  make([]float32, cfg.Layers*cfg.RoutedExperts),
	}
	probs := make([]float64, cfg.RoutedExperts)
	for l := 0; l < cfg.Layers; l++ {
		for j := range probs {
			probs[j] = r.Float64()
		}
		tensor.Normalize1(probs)
		for j, v := range probs {
			m.Traj[l*cfg.RoutedExperts+j] = float32(v)
		}
	}
	m.buildPrefixNorms(cfg.RoutedExperts)
	m.semNorm2 = tensor.Norm2F32(m.Sem)
	return m
}

func (m *ExpertMap) buildPrefixNorms(j int) {
	layers := len(m.Traj) / j
	if cap(m.prefixNorm2) < layers {
		m.prefixNorm2 = make([]float64, layers)
	}
	m.prefixNorm2 = m.prefixNorm2[:layers]
	var acc float64
	for l := 0; l < layers; l++ {
		for _, v := range m.Traj[l*j : (l+1)*j] {
			acc += float64(v) * float64(v)
		}
		m.prefixNorm2[l] = acc
	}
}

// LayerProbs returns layer l's stored distribution as float64.
func (m *ExpertMap) LayerProbs(l, j int) []float64 {
	return tensor.Float64s(m.Traj[l*j : (l+1)*j])
}

// LayerProbsInto widens layer l's stored distribution into dst (length j)
// without allocating — the hot-path form of LayerProbs.
//
//finemoe:hotpath
func (m *ExpertMap) LayerProbsInto(l, j int, dst []float64) {
	tensor.Float64sInto(m.Traj[l*j:(l+1)*j], dst)
}

// Bytes returns the paper-accounted storage size of this map: trajectory
// plus embedding at 4 bytes per value (Fig. 18).
func (m *ExpertMap) Bytes() int64 { return int64(len(m.Traj)+len(m.Sem)) * 4 }

// Store is the Expert Map Store (§3.2): a capacity-bounded collection of
// expert maps acting as the message broker between the inference process
// (publisher of new iteration contexts) and the Expert Map Searcher
// (subscriber). When full, redundancy-scored deduplication replaces the
// stored map most similar to the incoming one, preserving diversity (§4.4).
//
// Store is safe for concurrent use. A full store's AddIteration is
// allocation-free: it fills a spare map in place and keeps the map it
// evicts as the next spare. Only maps the store built itself are
// recycled, and only while nothing outside the store can hold them
// beyond one update: Clone and Snapshot give up the store's claim on
// every map they share, and maps passed to Add are never reused. So a
// map returned by a search (SearchResult.Map, a cursor candidate) is
// valid until the next Add or AddIteration on this store returns, while
// the maps in a snapshot or shared with a clone stay valid for good.
type Store struct {
	mu       sync.RWMutex
	cfg      moe.Config
	capacity int
	// d is the prefetch distance used to weight semantic vs trajectory
	// redundancy: RDY = d/L·sem + (L−d)/L·traj (§4.4). semW caches
	// d/L — Redundancy runs once per stored map per insertion, so the
	// division is hoisted out of the dedup scan.
	semW float64
	d    int
	maps []*ExpertMap
	// owned[i] reports that maps[i] was built by AddIteration and has not
	// since been shared by Clone or Snapshot, so once evicted it may be
	// overwritten.
	owned []bool
	// spare is an evicted owned map that the next AddIteration fills in
	// place instead of allocating a new one; nil until the store first
	// evicts a map it owns.
	spare *ExpertMap

	// index clusters the population's semantic embeddings so searches are
	// sublinear (see index.go); maintained incrementally on every
	// insertion and replacement.
	index *semIndex

	// dedupSample bounds how many stored maps each insertion is compared
	// against once the store is full (sampled uniformly); 0 compares
	// against everything, reproducing §4.4 exactly at higher cost.
	dedupSample int
	sampleRNG   *rng.RNG
	// dedupOff replaces redundancy-scored dedup with FIFO replacement
	// (ablation).
	dedupOff bool
	fifoNext int

	adds, replaced int
}

// NewStore builds a store with the paper's default capacity of 1K maps
// (§6.7) when capacity <= 0.
func NewStore(cfg moe.Config, capacity, prefetchDistance int) *Store {
	if capacity <= 0 {
		capacity = 1000
	}
	if prefetchDistance <= 0 {
		prefetchDistance = 1
	}
	return &Store{
		cfg:         cfg,
		capacity:    capacity,
		d:           prefetchDistance,
		semW:        float64(prefetchDistance) / float64(cfg.Layers),
		index:       newSemIndex(cfg.SemDim, capacity),
		dedupSample: 96,
		sampleRNG:   rng.New(rng.Mix(0x57, uint64(capacity))),
	}
}

// SetDedupSample overrides the dedup comparison sample size (0 = full
// pairwise comparison, the paper's exact formulation).
func (s *Store) SetDedupSample(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dedupSample = n
}

// Capacity returns the configured map capacity.
func (s *Store) Capacity() int { return s.capacity }

// Len returns the number of stored maps.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.maps)
}

// MemoryBytes returns the CPU-memory footprint of the stored maps — the
// quantity of the paper's Fig. 18.
func (s *Store) MemoryBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.maps) == 0 {
		return 0
	}
	return int64(len(s.maps)) * s.maps[0].Bytes()
}

// Add inserts a map, deduplicating against the incumbent population when at
// capacity: the stored map with the highest redundancy score against the
// newcomer is replaced (§4.4).
//
// The store never writes to m; the caller must not change it while it
// is stored.
func (s *Store) Add(m *ExpertMap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(m, false)
}

// AddIteration records an observed iteration (the paper's Step 5). Once
// the store has evicted a map it built, the new map reuses that map's
// memory, so a full store's update allocates nothing.
//
//finemoe:hotpath
func (s *Store) AddIteration(reqID uint64, it *moe.Iteration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.spare
	s.spare = nil
	if m == nil {
		m = new(ExpertMap)
	}
	m.fill(s.cfg, reqID, it)
	s.addLocked(m, true)
}

// addLocked inserts m, replacing the most redundant stored map when at
// capacity (§4.4). owned marks a map the store built and may recycle; an
// evicted owned map becomes the spare.
func (s *Store) addLocked(m *ExpertMap, owned bool) {
	s.adds++
	if len(s.maps) < s.capacity {
		s.maps = append(s.maps, m)
		s.owned = append(s.owned, owned)
		s.index.insert(len(s.maps)-1, m.Sem)
		return
	}
	var idx int
	if s.dedupOff {
		idx = s.fifoNext % len(s.maps)
		s.fifoNext++
	} else {
		idx = s.mostRedundantLocked(m)
	}
	if s.owned[idx] {
		s.spare = s.maps[idx]
	}
	s.index.remove(idx)
	s.maps[idx] = m
	s.owned[idx] = owned
	s.index.insert(idx, m.Sem)
	s.replaced++
}

// Redundancy returns RDY(a,b) = d/L·cos(sem) + (L−d)/L·cos(traj) (§4.4).
// Both cosines run as one fused dot against norms cached at map
// construction (semNorm2, the full-trajectory prefixNorm2 entry), which
// tensor.DotF32/CosineWithNorms document as bit-identical to CosineF32 —
// the dot and each norm are independent accumulator chains over the same
// element order.
//
//finemoe:hotpath
func (s *Store) Redundancy(a, b *ExpertMap) float64 {
	w := s.semW
	sem := tensor.CosineWithNorms(tensor.DotF32(a.Sem, b.Sem), a.semNorm2, b.semNorm2)
	traj := tensor.CosineWithNorms(tensor.DotF32(a.Traj, b.Traj),
		a.prefixNorm2[len(a.prefixNorm2)-1], b.prefixNorm2[len(b.prefixNorm2)-1])
	return w*sem + (1-w)*traj
}

// trajCosBound is a sound upper bound on any CosineWithNorms result: the
// true cosine is ≤ 1 and the fused dot/norm evaluation perturbs it by at
// most a few ULPs, orders of magnitude under this slack. redundancyAbove
// uses it to skip trajectory dots that provably cannot affect the
// dedup argmax.
const trajCosBound = 1 + 1e-9

// redundancyAbove returns Redundancy(a, b) when it can exceed bestScore,
// and (anything ≤ bestScore, false) when it provably cannot. The dedup
// scan replaces on strict r > bestScore, so skipping entries whose upper
// bound w·sem + (1−w)·trajCosBound is ≤ bestScore selects exactly the
// index the full scan would: FP multiplication by the nonnegative (1−w)
// and the final addition are both monotone, so the bound dominates the
// true score, and a NaN bound falls through to the full evaluation,
// which loses the strict comparison just as it does unpruned.
//
//finemoe:hotpath
func (s *Store) redundancyAbove(a, b *ExpertMap, bestScore float64) (float64, bool) {
	w := s.semW
	sem := tensor.CosineWithNorms(tensor.DotF32(a.Sem, b.Sem), a.semNorm2, b.semNorm2)
	if w <= 1 && w*sem+(1-w)*trajCosBound <= bestScore {
		return bestScore, false
	}
	traj := tensor.CosineWithNorms(tensor.DotF32(a.Traj, b.Traj),
		a.prefixNorm2[len(a.prefixNorm2)-1], b.prefixNorm2[len(b.prefixNorm2)-1])
	return w*sem + (1-w)*traj, true
}

func (s *Store) mostRedundantLocked(m *ExpertMap) int {
	n := len(s.maps)
	bestIdx, bestScore := 0, math.Inf(-1)
	if s.dedupSample > 0 && s.dedupSample < n {
		for k := 0; k < s.dedupSample; k++ {
			i := s.sampleRNG.Intn(n)
			if r, ok := s.redundancyAbove(m, s.maps[i], bestScore); ok && r > bestScore {
				bestIdx, bestScore = i, r
			}
		}
		return bestIdx
	}
	for i, old := range s.maps {
		if r, ok := s.redundancyAbove(m, old, bestScore); ok && r > bestScore {
			bestIdx, bestScore = i, r
		}
	}
	return bestIdx
}

// Clone returns an independent store with the same configuration and the
// current map population. The maps are shared, so neither store recycles
// them; subsequent Adds to either store do not affect the other. The
// experiment harness clones one prototype store per (model, dataset) so
// each serving run mutates its own copy.
func (s *Store) Clone() *Store {
	maps := s.Snapshot()
	c := NewStore(s.cfg, s.capacity, s.d)
	s.mu.RLock()
	c.dedupSample, c.dedupOff = s.dedupSample, s.dedupOff
	s.mu.RUnlock()
	c.maps = maps
	c.owned = make([]bool, len(maps))
	// Rebuild the clone's index from the copied population in slot order —
	// deterministic, and independent of the original's insertion history.
	// Shared maps are never overwritten, so this reads them unlocked.
	for i, m := range c.maps {
		c.index.insert(i, m.Sem)
	}
	return c
}

// SetDedupDisabled switches the at-capacity replacement rule from
// redundancy-scored dedup (§4.4) to plain FIFO ring replacement — the
// store-management ablation.
func (s *Store) SetDedupDisabled(off bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dedupOff = off
}

// Snapshot returns a copy of the current map population in store order.
// The store stops recycling every map the snapshot holds, so the maps stay
// valid, and searches over a snapshot are race-free while inserts
// continue.
func (s *Store) Snapshot() []*ExpertMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.owned)
	return append([]*ExpertMap(nil), s.maps...)
}

// appendMaps appends the current population, in store order, to dst. The
// maps are valid until the next Add or AddIteration returns.
func (s *Store) appendMaps(dst []*ExpertMap) []*ExpertMap {
	s.mu.RLock()
	dst = append(dst, s.maps...)
	s.mu.RUnlock()
	return dst
}

// semSearch runs one indexed semantic search under the store lock and
// resolves the winning slot to its map. nprobe <= 0 probes every bucket
// (exact mode, byte-identical to the brute-force scan).
func (s *Store) semSearch(q *Query, nprobe int) (SearchResult, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.maps) == 0 {
		return SearchResult{}, false
	}
	slot, score := s.index.search(q, nprobe, len(s.maps))
	if slot < 0 {
		return SearchResult{}, false
	}
	return SearchResult{Map: s.maps[slot], Score: score}, true
}

// semTopN appends the semantic top-n maps under (score desc, slot asc) —
// the trajectory prefilter's comparator — to dst and returns it. scratch
// is the caller's pooled slotScore buffer (returned for reuse).
func (s *Store) semTopN(q *Query, nprobe, n int, dst []*ExpertMap, scratch []slotScore) ([]*ExpertMap, []slotScore) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	top := s.index.topN(q, nprobe, n, len(s.maps), scratch[:0])
	for _, t := range top {
		dst = append(dst, s.maps[t.slot])
	}
	return dst, top[:0]
}

// probeStats reports the index's search shape for the latency model: the
// number of non-empty clusters the probe ordering scores, and the expected
// candidate count a search with the given nprobe scans (the full
// population in exact mode, ~population·nprobe/clusters when probing).
func (s *Store) probeStats(nprobe int) (clusters, candidates int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	clusters = s.index.active()
	candidates = len(s.maps)
	if nprobe > 0 && nprobe < clusters {
		candidates = (candidates*nprobe + clusters - 1) / clusters
	}
	return clusters, candidates
}

// StoreStats summarizes store churn.
type StoreStats struct {
	Len, Capacity  int
	Adds, Replaced int
	MemoryBytes    int64
	PrefetchDist   int
}

// Stats returns store statistics.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var mem int64
	if len(s.maps) > 0 {
		mem = int64(len(s.maps)) * s.maps[0].Bytes()
	}
	return StoreStats{
		Len: len(s.maps), Capacity: s.capacity,
		Adds: s.adds, Replaced: s.replaced,
		MemoryBytes: mem, PrefetchDist: s.d,
	}
}

// Config returns the model configuration the store was built for.
func (s *Store) Config() moe.Config { return s.cfg }

// PrefetchDistance returns the distance weighting dedup and search.
func (s *Store) PrefetchDistance() int { return s.d }

// BuildStore populates a store from full request traces — the offline
// evaluation's "70% of the prompts' context data" preparation (§6.1).
// Traces are inserted in ascending request-ID order so the store content is
// deterministic.
func BuildStore(cfg moe.Config, capacity, prefetchDistance int, traces map[uint64][]*moe.Iteration) *Store {
	s := NewStore(cfg, capacity, prefetchDistance)
	ids := make([]uint64, 0, len(traces))
	for reqID := range traces {
		ids = append(ids, reqID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, reqID := range ids {
		for _, it := range traces[reqID] {
			s.AddIteration(reqID, it)
		}
	}
	return s
}

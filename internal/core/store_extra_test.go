package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/raceflag"
)

func TestStoreCloneIndependence(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 61)
	s := NewStore(cfg, 50, 2)
	for _, it := range m.Trace(testPrompt(cfg, 1, 0, 4, 5)) {
		s.AddIteration(1, it)
	}
	clone := s.Clone()
	if clone.Len() != s.Len() || clone.Capacity() != s.Capacity() {
		t.Fatalf("clone shape: %d/%d vs %d/%d", clone.Len(), clone.Capacity(), s.Len(), s.Capacity())
	}
	// Mutating the clone must not touch the original.
	for _, it := range m.Trace(testPrompt(cfg, 2, 1, 4, 5)) {
		clone.AddIteration(2, it)
	}
	if s.Len() == clone.Len() {
		t.Fatal("clone shares mutable state with the original")
	}
	// Shared maps are identical pointers (cheap clone).
	if s.Snapshot()[0] != clone.Snapshot()[0] {
		t.Fatal("clone copied shared maps needlessly")
	}

	// Recycling must never reach a map held outside the store that built
	// it: maps shared between a store and its clone, maps handed out in a
	// snapshot, and a map given to Add keep their contents after both
	// stores evict them and fill their spares many times over.
	iters := testIterations(cfg, m, 40)
	orig := NewStore(cfg, 6, 2)
	next := 0
	feed := func(st *Store) {
		st.AddIteration(uint64(next), iters[next%len(iters)])
		next++
	}
	for i := 0; i < 10; i++ {
		feed(orig) // full, and already recycling its own maps
	}
	if orig.spare == nil {
		t.Fatal("a full store kept no spare after evicting its own maps")
	}
	shared := slices.Clone(orig.maps)
	c := orig.Clone()
	given := NewExpertMap(cfg, 999, iters[len(iters)-1])
	c.Add(given)
	evictAll(t, orig, feed, "shared with a clone", shared)
	evictAll(t, c, feed, "shared with the original", shared)
	evictAll(t, c, feed, "given to Add", []*ExpertMap{given})
	evictAll(t, orig, feed, "handed out in a snapshot", orig.Snapshot())
}

// testIterations traces prompts over eight topics until at least n
// iterations are collected.
func testIterations(cfg moe.Config, m *moe.Model, n int) []*moe.Iteration {
	var iters []*moe.Iteration
	for p := uint64(0); len(iters) < n; p++ {
		iters = append(iters, m.Trace(testPrompt(cfg, p, p%8, 4, 5))...)
	}
	return iters
}

// evictAll feeds st until it has stored none of maps for twice its
// capacity in updates, so every spare it kept since evicting them has been
// filled, and fails as soon as one of maps changes.
func evictAll(t *testing.T, st *Store, feed func(*Store), what string, maps []*ExpertMap) {
	t.Helper()
	copies := make([]ExpertMap, len(maps))
	for i, m := range maps {
		copies[i] = *m
		copies[i].Sem = slices.Clone(m.Sem)
		copies[i].Traj = slices.Clone(m.Traj)
		copies[i].prefixNorm2 = slices.Clone(m.prefixNorm2)
	}
	stored := func(m *ExpertMap) bool { return slices.Contains(maps, m) }
	for n, clean := 0, 0; clean < 2*st.Capacity(); n++ {
		if n > 5000 {
			t.Fatalf("store never evicted the maps %s", what)
		}
		feed(st)
		for i, m := range maps {
			if !sameBits(m, &copies[i]) {
				t.Fatalf("map %d %s was overwritten: req %d iter %d, was req %d iter %d",
					i, what, m.ReqID, m.Iter, copies[i].ReqID, copies[i].Iter)
			}
		}
		if clean > 0 || !slices.ContainsFunc(st.maps, stored) {
			clean++
		}
	}
}

// sameBits reports whether two maps hold bit-identical contents.
func sameBits(a, b *ExpertMap) bool {
	f32 := func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
	}
	f64 := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return a.ReqID == b.ReqID && a.Iter == b.Iter &&
		f32(a.Sem, b.Sem) && f32(a.Traj, b.Traj) && f64(a.prefixNorm2, b.prefixNorm2) &&
		math.Float64bits(a.semNorm2) == math.Float64bits(b.semNorm2)
}

// TestFillMatchesNewExpertMap: filling a map that held another iteration,
// or a zero map, gives the bits of a freshly built one, and reuses the old
// map's buffers.
func TestFillMatchesNewExpertMap(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 68)
	old := m.Trace(testPrompt(cfg, 1, 0, 4, 3))
	for i, it := range m.Trace(testPrompt(cfg, 2, 5, 4, 3)) {
		want := NewExpertMap(cfg, 2, it)
		reused := NewExpertMap(cfg, 1, old[(i+1)%len(old)])
		traj := &reused.Traj[0]
		reused.fill(cfg, 2, it)
		if &reused.Traj[0] != traj {
			t.Fatal("fill reallocated a buffer that was large enough")
		}
		var zero ExpertMap
		zero.fill(cfg, 2, it)
		if !sameBits(reused, want) || !sameBits(&zero, want) {
			t.Fatalf("iteration %d: filled map differs from NewExpertMap", i)
		}
	}
}

// TestAddIterationAllocatesNothingWhenFull: once a full store has evicted
// one of its own maps, every update reuses the evicted map's memory.
func TestAddIterationAllocatesNothingWhenFull(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 67)
	iters := testIterations(cfg, m, 120)
	s := NewStore(cfg, 16, 2)
	for i, it := range iters {
		s.AddIteration(uint64(i), it)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.AddIteration(uint64(k), iters[k%len(iters)])
		k++
	})
	if allocs != 0 {
		t.Fatalf("AddIteration on a full store allocates %.1f objects per call", allocs)
	}
}

func TestDedupDisabledFIFO(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 62)
	s := NewStore(cfg, 3, 2)
	s.SetDedupDisabled(true)
	iters := m.Trace(testPrompt(cfg, 1, 0, 4, 6))
	for i, it := range iters {
		s.AddIteration(uint64(i), it)
	}
	// FIFO: after 6 adds into capacity 3, the replacement cursor wrapped
	// once; survivors must be the most recent window in ring order.
	snap := s.Snapshot()
	seen := map[int]bool{}
	for _, em := range snap {
		seen[em.Iter] = true
	}
	for _, want := range []int{3, 4, 5} {
		if !seen[want] {
			t.Fatalf("FIFO survivors wrong: %v", seen)
		}
	}
}

// TestDedupReplacesFirstOfEquallyRedundant pins the dedup scan's
// tie-break: when several stored maps are equally redundant with a
// newcomer, the first of them the scan visits is replaced. The prune in
// redundancyAbove is exact only under this strict first-index rule.
func TestDedupReplacesFirstOfEquallyRedundant(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 63)
	iters := testIterations(cfg, m, 2)
	const n = 8
	for _, sample := range []int{0, 4} {
		s := NewStore(cfg, n, 2)
		s.SetDedupSample(sample)
		// Slot 0 holds another iteration; slots 1..n-1 hold maps of one
		// iteration, bit-identical but for the request ID, so all of them
		// tie as the newcomer's most redundant incumbent.
		s.Add(NewExpertMap(cfg, 0, iters[0]))
		for id := uint64(1); id < n; id++ {
			s.Add(NewExpertMap(cfg, id, iters[1]))
		}
		newcomer := NewExpertMap(cfg, 99, iters[1])
		if a, b := s.Redundancy(newcomer, s.maps[0]), s.Redundancy(newcomer, s.maps[1]); a >= b {
			t.Fatalf("slot 0 is as redundant as the duplicates (%v >= %v)", a, b)
		}
		// The scan visits the tied slots in slot order or, when it
		// samples, in the order its RNG draws them.
		tied := []int{1, n - 1}
		if sample > 0 {
			r := *s.sampleRNG
			tied = tied[:0]
			for k := 0; k < sample; k++ {
				if i := r.Intn(n); i > 0 {
					tied = append(tied, i)
				}
			}
		}
		if len(tied) < 2 || tied[0] == tied[len(tied)-1] {
			t.Fatalf("sample %d visits tied slots %v: first and last coincide, so no tie to break", sample, tied)
		}
		s.Add(newcomer)
		for i, em := range s.maps {
			want := uint64(i)
			if i == tied[0] {
				want = 99
			}
			if em.ReqID != want {
				t.Fatalf("sample %d: slot %d holds request %d, want %d (tied slots visited in order %v)",
					sample, i, em.ReqID, want, tied)
			}
		}
	}
}

func TestStoreConcurrentAddAndSearch(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 63)
	s := NewStore(cfg, 100, 2)
	searcher := NewSearcher(s, 0)
	base := m.Trace(testPrompt(cfg, 1, 0, 4, 4))
	for _, it := range base {
		s.AddIteration(1, it)
	}
	var wg sync.WaitGroup
	// Writers publish new maps while readers search snapshots — the
	// §4.3 publisher/subscriber pattern must be race-free (run under
	// -race in CI). The store never fills, so no map is recycled and the
	// readers may dereference what they find; a full store's maps live
	// only until the next update (TestStoreConcurrentEvictAndSearch).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			iters := m.Trace(testPrompt(cfg, seed, seed%3, 4, 6))
			for _, it := range iters {
				s.AddIteration(seed, it)
			}
		}(uint64(w + 10))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, ok := searcher.SemanticSearch(base[0].Semantic); !ok {
					t.Error("search failed on non-empty store")
					return
				}
				cur := searcher.NewCursor(base[0].Semantic)
				for l := 0; l < cfg.Layers; l++ {
					cur.Observe(base[0].Probs[l])
				}
				if _, ok := cur.Best(); !ok {
					t.Error("cursor found nothing")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoreConcurrentEvictAndSearch runs evicting updates on a small store
// while other goroutines search it, clone it and snapshot it, so the
// spare map and the owned flags are shared across goroutines (run under
// -race). Searchers read only the score: a returned map may be recycled
// by the next update.
func TestStoreConcurrentEvictAndSearch(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 69)
	s := NewStore(cfg, 6, 2)
	searcher := NewSearcher(s, 0)
	base := m.Trace(testPrompt(cfg, 1, 0, 4, 6))
	for _, it := range base {
		s.AddIteration(1, it)
	}
	var wg sync.WaitGroup
	for w := uint64(10); w < 13; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := uint64(0); p < 8; p++ {
				for _, it := range m.Trace(testPrompt(cfg, w*100+p, p%4, 4, 6)) {
					s.AddIteration(w, it)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, ok := searcher.SemanticSearch(base[i%len(base)].Semantic)
				if !ok || res.Score < -1 || res.Score > 1 {
					t.Errorf("search on a full store: ok=%v score=%v", ok, res.Score)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if c := s.Clone(); c.Len() != s.Capacity() {
				t.Errorf("clone holds %d maps, want %d", c.Len(), s.Capacity())
				return
			}
			for _, em := range s.Snapshot() {
				if len(em.Traj) != cfg.Layers*cfg.RoutedExperts {
					t.Errorf("snapshot map has %d trajectory values", len(em.Traj))
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestPredictIterationAblationMonotone(t *testing.T) {
	// More features should not reduce prediction quality on average.
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 64)
	s := buildTestStore(t, cfg, m, 20, 300)
	searcher := NewSearcher(s, 0)
	var tOnly, ts, tsd float64
	var n int
	for q := uint64(200); q < 206; q++ {
		iters := m.Trace(testPrompt(cfg, q, q%8, 4, 6))
		for _, it := range iters[1:] {
			tOnly += PredictIteration(searcher, it, PredictOptions{D: 2, UseTrajectory: true}).HitRate(it)
			ts += PredictIteration(searcher, it, PredictOptions{D: 2, UseTrajectory: true, UseSemantic: true}).HitRate(it)
			tsd += PredictIteration(searcher, it, PredictOptions{D: 2, UseTrajectory: true, UseSemantic: true, Dynamic: true}).HitRate(it)
			n++
		}
	}
	f := float64(n)
	if ts/f < tOnly/f {
		t.Fatalf("semantic guidance reduced hit rate: %.3f -> %.3f", tOnly/f, ts/f)
	}
	if tsd/f < ts/f-0.01 {
		t.Fatalf("dynamic threshold reduced hit rate: %.3f -> %.3f", ts/f, tsd/f)
	}
}

func TestPredictIterationDefaults(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 65)
	s := buildTestStore(t, cfg, m, 8, 100)
	searcher := NewSearcher(s, 0)
	it := m.Trace(testPrompt(cfg, 300, 0, 4, 2))[1]
	// Zero-value options: D and TopK default sensibly.
	pred := PredictIteration(searcher, it, PredictOptions{UseSemantic: true, UseTrajectory: true})
	if len(pred.Sets) != cfg.Layers {
		t.Fatalf("sets length %d", len(pred.Sets))
	}
	nonNil := 0
	for _, s := range pred.Sets {
		if s != nil {
			nonNil++
		}
	}
	if nonNil != cfg.Layers {
		t.Fatalf("guided layers %d, want all %d", nonNil, cfg.Layers)
	}
}

func TestSearchLatencyModelsScale(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 66)
	small := buildTestStore(t, cfg, m, 4, 40)
	big := buildTestStore(t, cfg, m, 20, 400)
	sSmall := NewSearcher(small, 0)
	sBig := NewSearcher(big, 0)
	if sSmall.SemanticLatencyMS() >= sBig.SemanticLatencyMS() {
		t.Fatal("semantic search latency must grow with store size")
	}
	if sSmall.TrajectoryLatencyMS() >= sBig.TrajectoryLatencyMS() {
		t.Fatal("trajectory search latency must grow with store size")
	}
	// Prefilter caps the trajectory latency.
	sCapped := NewSearcher(big, 8)
	if sCapped.TrajectoryLatencyMS() >= sBig.TrajectoryLatencyMS() {
		t.Fatal("prefilter did not cap trajectory search latency")
	}
}

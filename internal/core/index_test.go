package core

import (
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/rng"
	"finemoe/internal/tensor"
)

// randomStore builds a store of n synthetic maps over capacity cap,
// exercising both the fill phase and the dedup-eviction phase when
// n > cap.
func randomStore(cfg moe.Config, capacity, n int, seed uint64) *Store {
	s := NewStore(cfg, capacity, 2)
	for i := 0; i < n; i++ {
		s.Add(RandomExpertMap(cfg, uint64(i), seed))
	}
	return s
}

// checkIndexInvariants asserts the clustered index's structural contract:
// every live slot sits in exactly one bucket at its recorded position,
// bucket counts match, and every centroid sum equals the exact vector sum
// of its members.
func checkIndexInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.index
	seen := map[int32]bool{}
	total := 0
	for c, b := range ix.buckets {
		if len(b) != ix.counts[c] {
			t.Fatalf("cluster %d: bucket len %d != count %d", c, len(b), ix.counts[c])
		}
		total += len(b)
		sum := make([]float64, ix.dim)
		for pos, slot := range b {
			if seen[slot] {
				t.Fatalf("slot %d in more than one bucket", slot)
			}
			seen[slot] = true
			if int(slot) >= len(s.maps) {
				t.Fatalf("cluster %d holds dead slot %d (population %d)", c, slot, len(s.maps))
			}
			if ix.slotCluster[slot] != int32(c) || ix.slotPos[slot] != int32(pos) {
				t.Fatalf("slot %d: recorded (cluster=%d pos=%d), actual (%d, %d)",
					slot, ix.slotCluster[slot], ix.slotPos[slot], c, pos)
			}
			// The arena embedding must be the live map's embedding.
			sem := ix.sem(slot)
			for i, x := range s.maps[slot].Sem {
				if sem[i] != x {
					t.Fatalf("slot %d: arena embedding diverged at %d", slot, i)
				}
				sum[i] += float64(x)
			}
			if got, want := ix.norm2[slot], tensor.Norm2F32(s.maps[slot].Sem); got != want {
				t.Fatalf("slot %d: cached norm² %v != %v", slot, got, want)
			}
		}
		for i, x := range sum {
			if diff := ix.sums[c][i] - x; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("cluster %d: centroid sum drifted by %v at dim %d", c, diff, i)
			}
		}
	}
	if total != len(s.maps) {
		t.Fatalf("index covers %d slots, population is %d", total, len(s.maps))
	}
}

// TestIndexedSearchParity is the exact-mode contract: across seeded random
// stores — growing, at capacity, and churned past capacity by dedup
// eviction — the indexed probe-all search must return the identical
// SearchResult (same *ExpertMap pointer, bit-identical score) as the
// seed's brute-force linear scan.
func TestIndexedSearchParity(t *testing.T) {
	cfg := moe.Tiny()
	for _, tc := range []struct{ capacity, n int }{
		{50, 1}, {50, 7}, {50, 50}, {50, 180}, {200, 500},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			s := randomStore(cfg, tc.capacity, tc.n, 1000+seed)
			checkIndexInvariants(t, s)
			searcher := NewSearcher(s, 0)
			r := rng.New(rng.Mix(7, seed))
			for trial := 0; trial < 25; trial++ {
				q := make([]float64, cfg.SemDim)
				r.UnitVec(q)
				got, okGot := searcher.SemanticSearch(q)
				want, okWant := searcher.BruteForceSemanticSearch(q)
				if okGot != okWant {
					t.Fatalf("cap=%d n=%d: ok mismatch", tc.capacity, tc.n)
				}
				if got.Map != want.Map || got.Score != want.Score {
					t.Fatalf("cap=%d n=%d seed=%d: indexed (%p, %v) != brute (%p, %v)",
						tc.capacity, tc.n, seed, got.Map, got.Score, want.Map, want.Score)
				}
			}
		}
	}
}

// TestIndexedCursorParity pins the prefiltered trajectory candidate set:
// exact-mode top-N selection through the index must produce the same
// candidates in the same order as the seed's sort over a full snapshot,
// and therefore bit-identical Best results layer by layer.
func TestIndexedCursorParity(t *testing.T) {
	cfg := moe.Tiny()
	s := randomStore(cfg, 120, 300, 42)
	const prefilter = 16
	searcher := NewSearcher(s, prefilter)
	r := rng.New(99)
	probs := make([]float64, cfg.RoutedExperts)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, cfg.SemDim)
		r.UnitVec(q)

		// Seed reference: score every snapshot entry, sort by
		// (score desc, index asc), take the top prefilter.
		snap := s.Snapshot()
		qf := tensor.Float32s(q)
		type scored struct {
			i int
			c float64
		}
		ss := make([]scored, len(snap))
		for i, m := range snap {
			ss[i] = scored{i, tensor.CosineF32(qf, m.Sem)}
		}
		for i := 1; i < len(ss); i++ { // insertion sort: stable total order
			for j := i; j > 0; j-- {
				a, b := ss[j-1], ss[j]
				if a.c > b.c || (a.c == b.c && a.i < b.i) {
					break
				}
				ss[j-1], ss[j] = b, a
			}
		}

		cur := searcher.NewCursor(q)
		if len(cur.cands) != prefilter {
			t.Fatalf("prefilter candidates %d, want %d", len(cur.cands), prefilter)
		}
		for i, m := range cur.cands {
			if m != snap[ss[i].i] {
				t.Fatalf("trial %d: candidate %d is %p, want %p", trial, i, m, snap[ss[i].i])
			}
		}
		for l := 0; l < cfg.Layers; l++ {
			for j := range probs {
				probs[j] = r.Float64()
			}
			tensor.Normalize1(probs)
			cur.Observe(probs)
		}
		res, ok := cur.Best()
		if !ok {
			t.Fatal("cursor found nothing")
		}
		if res.Map == nil {
			t.Fatal("nil best map")
		}
		cur.Release()
	}
}

// TestIndexEvictionInvariants churns a small store far past capacity under
// both replacement rules and re-checks the structural invariants, then
// verifies search parity still holds on the churned population.
func TestIndexEvictionInvariants(t *testing.T) {
	cfg := moe.Tiny()
	for _, fifo := range []bool{false, true} {
		s := NewStore(cfg, 30, 2)
		s.SetDedupDisabled(fifo)
		for i := 0; i < 400; i++ {
			s.Add(RandomExpertMap(cfg, uint64(i), 5))
			if i%97 == 0 {
				checkIndexInvariants(t, s)
			}
		}
		checkIndexInvariants(t, s)
		searcher := NewSearcher(s, 0)
		r := rng.New(11)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, cfg.SemDim)
			r.UnitVec(q)
			got, _ := searcher.SemanticSearch(q)
			want, _ := searcher.BruteForceSemanticSearch(q)
			if got.Map != want.Map || got.Score != want.Score {
				t.Fatalf("fifo=%v: post-churn parity broken", fifo)
			}
		}
	}
}

// TestIndexCloneParity: a cloned store rebuilds its index from the copied
// population and must search identically to brute force.
func TestIndexCloneParity(t *testing.T) {
	cfg := moe.Tiny()
	s := randomStore(cfg, 60, 150, 9)
	c := s.Clone()
	checkIndexInvariants(t, c)
	searcher := NewSearcher(c, 0)
	r := rng.New(13)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, cfg.SemDim)
		r.UnitVec(q)
		got, _ := searcher.SemanticSearch(q)
		want, _ := searcher.BruteForceSemanticSearch(q)
		if got.Map != want.Map || got.Score != want.Score {
			t.Fatal("clone parity broken")
		}
	}
	// Post-clone churn on the clone must not disturb the original's index.
	for i := 0; i < 100; i++ {
		c.Add(RandomExpertMap(cfg, uint64(1000+i), 9))
	}
	checkIndexInvariants(t, s)
	checkIndexInvariants(t, c)
}

// TestApproximateSearchSubset: with nprobe=1 the approximate search must
// return a real stored map whose score never exceeds the exact best, and
// snapshots must stay zero-copy between mutations.
func TestApproximateSearch(t *testing.T) {
	cfg := moe.Tiny()
	s := randomStore(cfg, 100, 250, 21)
	exact := NewSearcher(s, 0)
	approx := NewSearcher(s, 0)
	approx.SetNProbe(1)
	if approx.NProbe() != 1 || exact.NProbe() != 0 {
		t.Fatal("nprobe accessors wrong")
	}
	if approx.SemanticLatencyMS() >= exact.SemanticLatencyMS() {
		t.Fatal("approximate search must model lower latency than exact")
	}
	r := rng.New(17)
	agreed := 0
	for trial := 0; trial < 50; trial++ {
		q := make([]float64, cfg.SemDim)
		r.UnitVec(q)
		ga, okA := approx.SemanticSearch(q)
		ge, okE := exact.SemanticSearch(q)
		if !okA || !okE {
			t.Fatal("search failed on populated store")
		}
		if ga.Score > ge.Score {
			t.Fatalf("approximate score %v beats exact %v", ga.Score, ge.Score)
		}
		if ga.Map == ge.Map {
			agreed++
		}
	}
	// Sanity floor only: these embeddings are uniform random (no topic
	// structure), the worst case for a clustered index. The searchfig
	// experiment measures recall on topic-structured workloads.
	if agreed < 10 {
		t.Fatalf("nprobe=1 recall %d/50 implausibly low", agreed)
	}
}

// TestSnapshotIsACopy: a snapshot is the population in store order, and a
// later Add neither changes it nor goes unseen by the next snapshot.
func TestSnapshotIsACopy(t *testing.T) {
	cfg := moe.Tiny()
	s := randomStore(cfg, 50, 10, 3)
	a := s.Snapshot()
	added := RandomExpertMap(cfg, 99, 3)
	s.Add(added)
	c := s.Snapshot()
	if len(a) != 10 || len(c) != 11 || c[10] != added {
		t.Fatalf("snapshot lengths %d then %d, want 10 then 11 ending in the added map", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("slot %d changed across an append-only Add", i)
		}
	}
}

package core

import (
	"testing"

	"finemoe/internal/cache"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
)

// fakeRT records prefetch calls for policy unit tests.
type fakeRT struct {
	cfg       moe.Config
	prefetch  []moe.ExpertRef
	issueAt   []float64
	prio      []float64
	resident  map[moe.ExpertRef]bool
	syncCalls int
	// charged sums what the policy accounted per component.
	charged [policy.NumComponents]float64
}

func newFakeRT(cfg moe.Config) *fakeRT {
	return &fakeRT{cfg: cfg, resident: map[moe.ExpertRef]bool{}}
}

func (f *fakeRT) Config() moe.Config { return f.cfg }
func (f *fakeRT) Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool {
	f.prefetch = append(f.prefetch, ref)
	f.prio = append(f.prio, priority)
	f.issueAt = append(f.issueAt, issueTime)
	return true
}
func (f *fakeRT) SyncLoad(refs []moe.ExpertRef, now float64) float64 {
	f.syncCalls++
	return now
}
func (f *fakeRT) Resident(ref moe.ExpertRef) bool { return f.resident[ref] }
func (f *fakeRT) Tracked(moe.ExpertRef) bool      { return false }
func (f *fakeRT) Tier(ref moe.ExpertRef) int {
	if f.resident[ref] {
		return 0
	}
	return 1
}
func (f *fakeRT) Promote(ref moe.ExpertRef, priority, issueTime float64) bool {
	return f.Prefetch(ref, priority, issueTime)
}
func (f *fakeRT) Demote(moe.ExpertRef, float64) bool { return false }
func (f *fakeRT) Account(c policy.Component, ms float64) {
	f.charged[c] += ms
}

func newTestFineMoE(t *testing.T, opts Options) (*FineMoE, *fakeRT, *moe.Model) {
	t.Helper()
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 21)
	s := buildTestStore(t, cfg, m, 16, 200)
	f := NewFineMoE(s, opts)
	rt := newFakeRT(cfg)
	f.Attach(rt)
	return f, rt, m
}

func iterViewOf(it *moe.Iteration, reqID uint64) policy.IterView {
	return policy.IterView{ReqID: reqID, Iter: it.Index, Semantic: it.Semantic, IsPrefill: it.Index == 0, Tokens: it.Tokens}
}

func TestFineMoEPrefetchesInitialLayers(t *testing.T) {
	f, rt, m := newTestFineMoE(t, Options{PrefetchDistance: 2})
	it := m.Trace(testPrompt(f.cfg, 900, 1, 4, 2))[0]
	delay := f.StartIteration([]policy.IterView{iterViewOf(it, 900)}, 10)
	if delay != 0 {
		t.Fatalf("FineMoE must be fully asynchronous; sync delay %v", delay)
	}
	if len(rt.prefetch) == 0 {
		t.Fatal("no semantic prefetches issued")
	}
	layers := map[int]bool{}
	for i, ref := range rt.prefetch {
		layers[ref.Layer] = true
		if rt.issueAt[i] <= 10 {
			t.Fatalf("prefetch issue time %v does not include search latency", rt.issueAt[i])
		}
	}
	// Semantic guidance must cover the initial window [0,d) and extend
	// early low-priority guidance across the iteration for overlap.
	if !layers[0] || !layers[1] {
		t.Fatalf("initial layers not covered: %v", layers)
	}
	// Near layers must carry higher priority than far layers.
	var nearP, farP float64
	for i, ref := range rt.prefetch {
		if ref.Layer == 0 && nearP == 0 {
			nearP = rt.prio[i]
		}
		if ref.Layer == f.cfg.Layers-1 && farP == 0 {
			farP = rt.prio[i]
		}
	}
	if farP >= nearP && farP != 0 {
		t.Fatalf("priority not decaying with distance: near %v far %v", nearP, farP)
	}
}

func TestFineMoETrajectoryPrefetchTargetsLPlusD(t *testing.T) {
	f, rt, m := newTestFineMoE(t, Options{PrefetchDistance: 2})
	iters := m.Trace(testPrompt(f.cfg, 901, 2, 4, 3))
	it := iters[1]
	f.StartIteration([]policy.IterView{iterViewOf(it, 901)}, 0)
	n0 := len(rt.prefetch)
	lv := []policy.LayerView{{ReqID: 901, Iter: 1, Probs: it.Probs[0], Hidden: it.Hidden[0]}}
	if d := f.OnGate(0, lv, 5); d != 0 {
		t.Fatalf("OnGate sync delay %v", d)
	}
	if len(rt.prefetch) == n0 {
		t.Fatal("no trajectory prefetch issued")
	}
	for _, ref := range rt.prefetch[n0:] {
		if ref.Layer != 2 {
			t.Fatalf("trajectory prefetch for layer %d, want l+d = 2", ref.Layer)
		}
	}
	// Last layers: no prefetch beyond L.
	n1 := len(rt.prefetch)
	lvLast := []policy.LayerView{{ReqID: 901, Iter: 1, Probs: it.Probs[2], Hidden: it.Hidden[2]}}
	f.OnGate(f.cfg.Layers-1, lvLast, 6)
	if len(rt.prefetch) != n1 {
		t.Fatal("prefetch issued beyond last layer")
	}
}

func TestFineMoEResidentExpertsNotPrefetched(t *testing.T) {
	f, rt, m := newTestFineMoE(t, Options{PrefetchDistance: 2})
	// Mark everything resident: no prefetches should be issued.
	for l := 0; l < f.cfg.Layers; l++ {
		for j := 0; j < f.cfg.RoutedExperts; j++ {
			rt.resident[moe.ExpertRef{Layer: l, Expert: j}] = true
		}
	}
	it := m.Trace(testPrompt(f.cfg, 902, 0, 4, 2))[0]
	f.StartIteration([]policy.IterView{iterViewOf(it, 902)}, 0)
	if len(rt.prefetch) != 0 {
		t.Fatalf("prefetched %d resident experts", len(rt.prefetch))
	}
}

func TestFineMoEStoreUpdate(t *testing.T) {
	f, _, m := newTestFineMoE(t, Options{})
	before := f.Store().Stats().Adds
	it := m.Trace(testPrompt(f.cfg, 903, 0, 4, 2))[1]
	f.EndIteration(903, it, 0)
	if f.Store().Stats().Adds != before+1 {
		t.Fatal("EndIteration did not publish the map")
	}
}

func TestFineMoEEmptyStoreColdStart(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 22)
	f := NewFineMoE(NewStore(cfg, 10, 2), Options{})
	rt := newFakeRT(cfg)
	f.Attach(rt)
	it := m.Trace(testPrompt(cfg, 905, 0, 4, 2))[0]
	// Must not panic nor prefetch on an empty store.
	f.StartIteration([]policy.IterView{iterViewOf(it, 905)}, 0)
	f.OnGate(0, []policy.LayerView{{ReqID: 905, Iter: 0, Probs: it.Probs[0], Hidden: it.Hidden[0]}}, 1)
	if len(rt.prefetch) != 0 {
		t.Fatal("cold store should not prefetch")
	}
	// After observing iterations, the store warms and search activates.
	f.EndIteration(905, it, 2)
	it2 := m.Trace(testPrompt(cfg, 906, 0, 4, 2))[0]
	f.StartIteration([]policy.IterView{iterViewOf(it2, 906)}, 3)
	if len(rt.prefetch) == 0 {
		t.Fatal("warmed store issued no prefetches")
	}
}

func TestFineMoEEvictionScorer(t *testing.T) {
	f, rt, m := newTestFineMoE(t, Options{PrefetchDistance: 2})
	it := m.Trace(testPrompt(f.cfg, 907, 1, 4, 2))[0]
	f.StartIteration([]policy.IterView{iterViewOf(it, 907)}, 0)
	if len(rt.prefetch) == 0 {
		t.Skip("no prefetches to compare against")
	}
	predicted := rt.prefetch[0]
	unseen := moe.ExpertRef{Layer: f.cfg.Layers - 1, Expert: f.cfg.RoutedExperts - 1}
	meta := cache.Meta{Freq: 1}
	if f.Score(unseen, meta, 0) <= f.Score(predicted, meta, 0) {
		t.Fatal("unpredicted expert must have higher eviction priority")
	}
}

func TestFineMoEBreakdownAndOverhead(t *testing.T) {
	f, rt, m := newTestFineMoE(t, Options{})
	it := m.Trace(testPrompt(f.cfg, 910, 0, 4, 2))[0]
	f.StartIteration([]policy.IterView{iterViewOf(it, 910)}, 0)
	f.EndIteration(910, it, 1)
	for _, c := range []policy.Component{policy.CompCollect, policy.CompMapMatch, policy.CompUpdate} {
		if rt.charged[c] <= 0 {
			t.Fatalf("breakdown component %s not charged: %v", c, rt.charged)
		}
	}
	if f.MemoryOverheadBytes() != f.Store().MemoryBytes() {
		t.Fatal("memory overhead mismatch")
	}
	f.EndRequest(910, 2)
}

func TestFineMoEDefaults(t *testing.T) {
	cfg := moe.Tiny()
	s := NewStore(cfg, 10, 3)
	f := NewFineMoE(s, Options{})
	if f.PrefetchDistance() != cfg.OptimalPrefetchDistance {
		t.Fatalf("default d = %d, want model optimum %d", f.PrefetchDistance(), cfg.OptimalPrefetchDistance)
	}
	if f.Name() != "FineMoE" {
		t.Fatal("name wrong")
	}
	if f.Scorer() != cache.Scorer(f) {
		t.Fatal("FineMoE must be its own eviction scorer")
	}
}

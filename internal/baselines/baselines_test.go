package baselines

import (
	"math"
	"testing"

	"finemoe/internal/cache"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/rng"
	"finemoe/internal/tensor"
)

func testPrompt(cfg moe.Config, id, topic uint64, in, out int) moe.PromptSpec {
	dir := rng.UnitVecFor(cfg.SemDim, 777, topic)
	emb := tensor.Copy(dir)
	noise := make([]float64, cfg.SemDim)
	rng.New(rng.Mix(888, id)).UnitVec(noise)
	tensor.Axpy(0.1, noise, emb)
	tensor.Normalize(emb)
	return moe.PromptSpec{ID: id, Embedding: emb, InputTokens: in, OutputTokens: out, Seed: rng.Mix(999, id)}
}

// fakeRT implements policy.Runtime for baseline unit tests.
type fakeRT struct {
	cfg      moe.Config
	prefetch []moe.ExpertRef
	synced   [][]moe.ExpertRef
	resident map[moe.ExpertRef]bool
	syncCost float64
}

func newFakeRT(cfg moe.Config) *fakeRT {
	return &fakeRT{cfg: cfg, resident: map[moe.ExpertRef]bool{}, syncCost: 1.0}
}

func (f *fakeRT) Config() moe.Config { return f.cfg }
func (f *fakeRT) Prefetch(ref moe.ExpertRef, _, _ float64) bool {
	f.prefetch = append(f.prefetch, ref)
	return true
}
func (f *fakeRT) SyncLoad(refs []moe.ExpertRef, now float64) float64 {
	f.synced = append(f.synced, refs)
	for _, r := range refs {
		f.resident[r] = true
	}
	return now + f.syncCost*float64(len(refs))
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
func (f *fakeRT) Account(policy.Component, float64)  {}

func TestNoOffloadIsInert(t *testing.T) {
	p := NewNoOffload()
	rt := newFakeRT(moe.Tiny())
	p.Attach(rt)
	if d := p.StartIteration(nil, 0); d != 0 {
		t.Fatal("no-offload produced sync delay")
	}
	if d := p.OnGate(0, nil, 0); d != 0 {
		t.Fatal("no-offload reacted to gate")
	}
	if len(rt.prefetch)+len(rt.synced) != 0 {
		t.Fatal("no-offload moved weights")
	}
	if p.Name() != "No-offload" {
		t.Fatal("name")
	}
}

func TestDeepSpeedLoadsWholeLayer(t *testing.T) {
	cfg := moe.Tiny()
	p := NewDeepSpeed()
	rt := newFakeRT(cfg)
	p.Attach(rt)
	delay := p.OnGate(1, nil, 0)
	if len(rt.synced) != 1 || len(rt.synced[0]) != cfg.RoutedExperts {
		t.Fatalf("DeepSpeed loaded %v, want full layer", rt.synced)
	}
	if delay != float64(cfg.RoutedExperts) {
		t.Fatalf("DeepSpeed delay %v", delay)
	}
	for _, ref := range rt.synced[0] {
		if ref.Layer != 1 {
			t.Fatalf("wrong layer loaded: %+v", ref)
		}
	}
	// Second call: everything resident, no load, no delay.
	if d := p.OnGate(1, nil, 10); d != 0 || len(rt.synced) != 1 {
		t.Fatal("DeepSpeed reloaded resident layer")
	}
}

func TestMixtralOffloadSpeculatesNextLayer(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 5)
	p := NewMixtralOffload(m)
	rt := newFakeRT(cfg)
	p.Attach(rt)
	it := m.Trace(testPrompt(cfg, 1, 0, 4, 3))[1]
	views := []policy.LayerView{{ReqID: 1, Iter: 1, Probs: it.Probs[0], Hidden: it.Hidden[0]}}
	delay := p.OnGate(0, views, 0)
	if delay <= 0 {
		t.Fatal("synchronous speculation must block")
	}
	if len(rt.synced) != 1 {
		t.Fatalf("expected one sync load, got %d", len(rt.synced))
	}
	for _, ref := range rt.synced[0] {
		if ref.Layer != 1 {
			t.Fatalf("speculated wrong layer: %+v", ref)
		}
	}
	if len(rt.synced[0]) > cfg.TopK {
		t.Fatalf("speculated %d experts, want <= TopK", len(rt.synced[0]))
	}
	// Last layer: nothing to speculate.
	if d := p.OnGate(cfg.Layers-1, views, 0); d != 0 {
		t.Fatalf("speculated beyond last layer: %v", d)
	}
	if p.Scorer().Name() != "LRU" {
		t.Fatal("Mixtral-Offloading must use LRU")
	}
}

func TestProMoEPrefetchesAtStride(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 6)
	p := NewProMoE(m)
	p.Stride = 2
	rt := newFakeRT(cfg)
	p.Attach(rt)
	it := m.Trace(testPrompt(cfg, 2, 0, 4, 3))[1]
	views := []policy.LayerView{{ReqID: 2, Iter: 1, Probs: it.Probs[0], Hidden: it.Hidden[0]}}
	delay := p.OnGate(0, views, 0)
	if delay != p.PredictorMS {
		t.Fatalf("predictor cost %v, want %v", delay, p.PredictorMS)
	}
	if len(rt.prefetch) == 0 {
		t.Fatal("no async prefetch issued")
	}
	for _, ref := range rt.prefetch {
		if ref.Layer != 2 {
			t.Fatalf("prefetched layer %d, want stride target 2", ref.Layer)
		}
	}
	if len(rt.synced) != 0 {
		t.Fatal("ProMoE must not block on transfers")
	}
}

func TestEAMAggregation(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	iters := m.Trace(testPrompt(cfg, 3, 0, 4, 5))
	e := EAMFromTrace(cfg, iters)
	var total float64
	for _, v := range e.Counts {
		total += v
	}
	// prefill union sizes vary; decode contributes TopK per layer.
	minTotal := float64((len(iters) - 1) * cfg.Layers * cfg.TopK)
	if total < minTotal {
		t.Fatalf("EAM mass %v below decode-only bound %v", total, minTotal)
	}
	top := e.TopExperts(cfg, 0, 2)
	if len(top) != 2 {
		t.Fatalf("TopExperts returned %d", len(top))
	}
}

func TestEAMCollectionSearch(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 8)
	coll := NewEAMCollection(cfg)
	if _, _, ok := coll.Search(NewEAM(cfg)); ok {
		t.Fatal("empty collection returned a match")
	}
	// Store two topic-distinct request matrices.
	tA := m.Trace(testPrompt(cfg, 10, 0, 4, 6))
	tB := m.Trace(testPrompt(cfg, 11, 3, 4, 6))
	eA, eB := EAMFromTrace(cfg, tA), EAMFromTrace(cfg, tB)
	coll.Add(eA)
	coll.Add(eB)
	// A same-topic partial matrix must match the same-topic entry.
	partial := NewEAM(cfg)
	for _, it := range m.Trace(testPrompt(cfg, 12, 0, 4, 3)) {
		partial.ObserveIteration(cfg, it)
	}
	got, score, ok := coll.Search(partial)
	if !ok || got != eA {
		t.Fatalf("matched wrong EAM (score %.3f)", score)
	}
	if score < 0.5 {
		t.Fatalf("same-topic EAM score %.3f too low", score)
	}
	if coll.Len() != 2 {
		t.Fatal("collection length")
	}
	if coll.MemoryBytes() != int64(2*cfg.Layers*cfg.RoutedExperts*4) {
		t.Fatalf("memory accounting %d", coll.MemoryBytes())
	}
}

func TestEAMCollectionClone(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 9)
	coll := NewEAMCollection(cfg)
	coll.Add(EAMFromTrace(cfg, m.Trace(testPrompt(cfg, 20, 0, 4, 3))))
	clone := coll.Clone()
	clone.Add(EAMFromTrace(cfg, m.Trace(testPrompt(cfg, 21, 1, 4, 3))))
	if coll.Len() != 1 || clone.Len() != 2 {
		t.Fatalf("clone not independent: %d/%d", coll.Len(), clone.Len())
	}
}

func TestPopularExperts(t *testing.T) {
	cfg := moe.Tiny()
	coll := NewEAMCollection(cfg)
	e := NewEAM(cfg)
	e.ObserveLayer(cfg, 0, []int{3, 3, 3, 1})
	coll.Add(e)
	top := coll.PopularExperts(0, 1)
	if len(top) != 1 || top[0] != 3 {
		t.Fatalf("popular expert %v, want [3]", top)
	}
}

func TestMoEInfinityLifecycle(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 10)
	coll := NewEAMCollection(cfg)
	// Pre-populate with a same-topic request.
	coll.Add(EAMFromTrace(cfg, m.Trace(testPrompt(cfg, 30, 0, 4, 5))))
	p := NewMoEInfinity(coll)
	rt := newFakeRT(cfg)
	p.Attach(rt)

	p.StartRequest(31, 0)
	iters := m.Trace(testPrompt(cfg, 31, 0, 4, 3))
	iv := []policy.IterView{{ReqID: 31, Iter: 0, Semantic: iters[0].Semantic, IsPrefill: true, Tokens: 4}}
	delay := p.StartIteration(iv, 0)
	if delay <= 0 {
		t.Fatal("MoE-Infinity prediction must be synchronous")
	}
	if len(rt.prefetch) == 0 {
		t.Fatal("no prefetches from matched matrix")
	}
	// Prefetches must span several layers (request-level granularity).
	layers := map[int]bool{}
	for _, ref := range rt.prefetch {
		layers[ref.Layer] = true
	}
	if len(layers) < cfg.Layers {
		t.Fatalf("request-level prefetch covered %d layers, want all %d", len(layers), cfg.Layers)
	}
	// Gate observations accumulate into the partial matrix.
	lv := []policy.LayerView{{ReqID: 31, Iter: 0, Probs: iters[0].Probs[0], Hidden: iters[0].Hidden[0]}}
	if d := p.OnGate(0, lv, 1); d <= 0 {
		t.Fatal("per-layer prediction must cost time")
	}
	// Completion publishes the matrix.
	p.EndRequest(31, 2)
	if coll.Len() != 2 {
		t.Fatalf("finished request not published: %d", coll.Len())
	}
	if p.Scorer().Name() != "LFU" {
		t.Fatal("MoE-Infinity must use LFU")
	}
	if p.MemoryOverheadBytes() == 0 {
		t.Fatal("matrix collection memory not reported")
	}
}

func TestMoEInfinityColdStart(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 11)
	p := NewMoEInfinity(NewEAMCollection(cfg))
	rt := newFakeRT(cfg)
	p.Attach(rt)
	p.StartRequest(40, 0)
	it := m.Trace(testPrompt(cfg, 40, 0, 4, 2))[0]
	iv := []policy.IterView{{ReqID: 40, Iter: 0, Semantic: it.Semantic, IsPrefill: true, Tokens: 4}}
	p.StartIteration(iv, 0) // empty collection: no popular experts yet
	if len(rt.prefetch) != 0 {
		t.Fatal("cold collection should not prefetch")
	}
}

// TestCoarsePredictQuality: the EAM predictor must beat chance but sit well
// below the iteration-level ceiling (the paper's core coarse-vs-fine
// distinction).
func TestCoarsePredictQuality(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 12)
	coll := NewEAMCollection(cfg)
	for i := uint64(0); i < 12; i++ {
		coll.Add(EAMFromTrace(cfg, m.Trace(testPrompt(cfg, i, i%3, 4, 8))))
	}
	var hit float64
	var n int
	for q := uint64(100); q < 104; q++ {
		iters := m.Trace(testPrompt(cfg, q, q%3, 4, 8))
		history := NewEAM(cfg)
		for _, it := range iters {
			if it.Index > 0 {
				pred := CoarsePredict(cfg, coll, history, cfg.TopK)
				hit += moe.IterationHitRate(it, pred)
				n++
			}
			history.ObserveIteration(cfg, it)
		}
	}
	rate := hit / float64(n)
	chance := float64(cfg.TopK) / float64(cfg.RoutedExperts)
	if rate < chance+0.1 {
		t.Fatalf("coarse prediction %.3f no better than chance %.3f", rate, chance)
	}
	if rate > 0.95 {
		t.Fatalf("coarse prediction %.3f implausibly high — aggregation should blur", rate)
	}
}

func TestScorerAssignments(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 1)
	checks := []struct {
		p    policy.Policy
		want string
	}{
		{NewNoOffload(), "LRU"},
		{NewDeepSpeed(), "LRU"},
		{NewMixtralOffload(m), "LRU"},
		{NewProMoE(m), "LFU"},
		{NewMoEInfinity(NewEAMCollection(moe.Tiny())), "LFU"},
	}
	for _, c := range checks {
		if got := c.p.Scorer().Name(); got != c.want {
			t.Errorf("%s scorer %s, want %s", c.p.Name(), got, c.want)
		}
	}
	var _ cache.Scorer = cache.LRU{}
}

func TestSpeculationUsesModelGate(t *testing.T) {
	// ProMoE/MixOff speculation must equal the model's own gate applied
	// to the earlier hidden state.
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 13)
	it := m.Trace(testPrompt(cfg, 50, 0, 4, 2))[1]
	a := make([]float64, cfg.RoutedExperts)
	b := make([]float64, cfg.RoutedExperts)
	m.Speculate(it.Hidden[0], 1, a)
	m.GateProbs(it.Hidden[0], 1, b)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("Speculate diverges from GateProbs")
		}
	}
}

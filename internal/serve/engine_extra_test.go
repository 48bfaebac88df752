package serve

import (
	"testing"

	"finemoe/internal/baselines"
	"finemoe/internal/core"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
)

func TestResultPercentiles(t *testing.T) {
	cfg := moe.Tiny()
	e, m := newTinyEngine(t, baselines.NewDeepSpeed(), nil)
	reqs := testReqs(cfg, 5, 6)
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if res.TTFT.N != 5 || res.E2E.N != 5 || res.TPOT.N != 5 {
		t.Fatalf("summary sample sizes: %+v %+v %+v", res.TTFT, res.TPOT, res.E2E)
	}
	if res.TTFT.P50 > res.TTFT.P99 || res.E2E.P50 > res.E2E.P99 {
		t.Fatal("percentiles not ordered")
	}
	if res.MeanTTFT != res.TTFT.Mean || res.MeanTPOT != res.TPOT.Mean {
		t.Fatal("mean accessors diverge from summaries")
	}
	if res.E2E.Min <= 0 || res.E2E.Max < res.E2E.Min {
		t.Fatalf("E2E range wrong: %+v", res.E2E)
	}
}

// TestTinyCacheStress: a cache smaller than one layer's activation set must
// not wedge or panic — last-resort pinned eviction keeps serving (§4.5's
// on-demand path always succeeds).
func TestTinyCacheStress(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 55)
	reqs := testReqs(cfg, 2, 4)
	e := New(Options{
		Model: m, GPU: testGPU(), NumGPUs: 1,
		CacheBytes: cfg.ExpertBytes(), // a single expert fits
		Policy:     baselines.NewProMoE(m),
	})
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if len(res.Requests) != 2 {
		t.Fatal("requests lost under cache stress")
	}
	if res.HitRate > 0.5 {
		t.Fatalf("hit rate %.3f implausible with a one-expert cache", res.HitRate)
	}
	if res.CacheStats.Evictions == 0 {
		t.Fatal("no evictions under extreme pressure")
	}
}

// TestSharedExpertsStayDense: Qwen-style shared experts are part of the
// pinned dense bytes, never offloaded or transferred.
func TestSharedExpertsStayDense(t *testing.T) {
	cfg := moe.Tiny()
	cfg.SharedExperts = 2
	cfg.SharedIntermediate = 64
	m := moe.NewModel(cfg, 77)
	reqs := testReqs(cfg, 2, 4)
	e := New(Options{
		Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()),
		Policy:     baselines.NewDeepSpeed(),
	})
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	// Memory footprint must include the shared-expert bytes via DenseBytes.
	withoutShared := cfg
	withoutShared.SharedExperts = 0
	withoutShared.SharedIntermediate = 0
	if res.GPUMemoryBytes <= withoutShared.DenseBytes()*2+e.opts.CacheBytes {
		t.Fatal("shared experts missing from the memory footprint")
	}
	// No transfer may reference an expert index beyond the routed range.
	for _, r := range res.Requests {
		if r.Hits+r.Misses != activationsOf(cfg, buildTraces(m, reqs)[r.ID]) {
			t.Fatalf("activation accounting off for request %d", r.ID)
		}
	}
}

func activationsOf(cfg moe.Config, iters []*moe.Iteration) int {
	n := 0
	for _, it := range iters {
		for _, act := range it.Active {
			n += len(act)
		}
	}
	return n
}

// TestBreakdownComponentsFineMoE: the engine's per-iteration breakdown must
// contain inference plus load time, and the async components FineMoE
// charges through Runtime.Account.
func TestBreakdownComponentsFineMoE(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	storeReqs := testReqs(cfg, 12, 6)
	store := core.BuildStore(cfg, 200, 2, buildTraces(m, storeReqs))
	pol := core.NewFineMoE(store, core.Options{PrefetchDistance: 2})
	reqs := testReqs(cfg, 2, 6)
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2, Policy: pol})
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	for _, comp := range []policy.Component{policy.CompInfer, policy.CompCollect, policy.CompMapMatch, policy.CompUpdate} {
		if res.Breakdown[comp.String()] <= 0 {
			t.Fatalf("component %q missing: %v", comp, res.Breakdown)
		}
	}
	// FineMoE is fully asynchronous: no synchronous prediction time.
	if res.Breakdown[policy.CompPredict.String()] != 0 {
		t.Fatalf("FineMoE reported sync prediction time: %v", res.Breakdown)
	}
}

// TestOnlineMaxBatchRespected: the running set must never exceed MaxBatch.
// (Indirect check: with MaxBatch=2 and a burst, the two first requests must
// finish before the last is admitted.)
func TestOnlineMaxBatchRespected(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	reqs := testReqs(cfg, 4, 4)
	for i := range reqs {
		reqs[i].ArrivalMS = 0.001 * float64(i+1)
	}
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
		Policy:     baselines.NewDeepSpeed(), MaxBatch: 2})
	res := e.RunOnline(reqs, buildTraces(m, reqs))
	var starts []float64
	for _, r := range res.Requests {
		starts = append(starts, r.StartMS)
	}
	// Request 3 and 4 must start strictly later than requests 1 and 2
	// despite arriving almost simultaneously.
	later := 0
	for _, s := range starts[2:] {
		if s > starts[0] {
			later++
		}
	}
	if later != 2 {
		t.Fatalf("MaxBatch not enforced: starts %v", starts)
	}
}

// TestEngineIterationsMatchTokens: total engine iterations must equal the
// output tokens served for batch size 1.
func TestEngineIterationsMatchTokens(t *testing.T) {
	cfg := moe.Tiny()
	e, m := newTinyEngine(t, baselines.NewNoOffload(), func(o *Options) {
		o.PreloadAll = true
		o.CacheBytes = cfg.ExpertBytes() * int64(cfg.NumExperts())
	})
	reqs := testReqs(cfg, 3, 7)
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if res.Iterations != 3*7 {
		t.Fatalf("iterations %d, want 21", res.Iterations)
	}
}

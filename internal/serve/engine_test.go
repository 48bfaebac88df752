package serve

import (
	"math"
	"testing"

	"finemoe/internal/baselines"
	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/tensor"
	"finemoe/internal/workload"
)

func testGPU() memsim.GPUSpec {
	return memsim.GPUSpec{
		Name: "test-gpu", MemBytes: 1 << 30, HBMGBps: 100,
		FP16TFLOPS: 10, PCIeGBps: 1, PerLayerOverheadMS: 0.5,
	}
}

func testReqs(cfg moe.Config, n int, out int) []workload.Request {
	d := workload.Dataset{
		Name: "test", Topics: 8, TopicSpread: 0.12,
		MeanInput: 6, MeanOutput: out, Seed: 42,
	}
	return d.Sample(workload.Options{Dim: cfg.SemDim, N: n, Seed: 7, FixedLengths: true})
}

func buildTraces(m *moe.Model, reqs []workload.Request) map[uint64][]*moe.Iteration {
	out := map[uint64][]*moe.Iteration{}
	for _, q := range reqs {
		out[q.ID] = m.Trace(q.PromptSpec)
	}
	return out
}

func newTinyEngine(t *testing.T, pol policy.Policy, opts func(*Options)) (*Engine, *moe.Model) {
	t.Helper()
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	o := Options{
		Model:      m,
		GPU:        testGPU(),
		NumGPUs:    2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
		Policy:     pol,
	}
	if opts != nil {
		opts(&o)
	}
	return New(o), m
}

func TestNoOffloadPerfectHitRate(t *testing.T) {
	cfg := moe.Tiny()
	e, m := newTinyEngine(t, baselines.NewNoOffload(), func(o *Options) {
		o.PreloadAll = true
		o.CacheBytes = cfg.ExpertBytes() * int64(cfg.NumExperts())
	})
	reqs := testReqs(cfg, 3, 4)
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if res.HitRate != 1 {
		t.Fatalf("No-offload hit rate %.3f, want 1", res.HitRate)
	}
	if res.LinkStats.OnDemands != 0 || res.LinkStats.Prefetches != 0 {
		t.Fatalf("No-offload transferred: %+v", res.LinkStats)
	}
	if res.MeanTTFT <= 0 || res.MeanTPOT <= 0 {
		t.Fatalf("degenerate latency: %+v", res)
	}
}

func TestDeepSpeedAlwaysHits(t *testing.T) {
	e, m := newTinyEngine(t, baselines.NewDeepSpeed(), nil)
	reqs := testReqs(moe.Tiny(), 3, 4)
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if res.HitRate != 1 {
		t.Fatalf("DeepSpeed hit rate %.3f, want 1 (loads whole layers pre-gate)", res.HitRate)
	}
	if res.LinkStats.OnDemands == 0 {
		t.Fatal("DeepSpeed made no loads")
	}
}

func TestDeepSpeedSlowerThanNoOffload(t *testing.T) {
	cfg := moe.Tiny()
	reqs := testReqs(cfg, 3, 4)

	eNo, m := newTinyEngine(t, baselines.NewNoOffload(), func(o *Options) {
		o.PreloadAll = true
		o.CacheBytes = cfg.ExpertBytes() * int64(cfg.NumExperts())
	})
	traces := buildTraces(m, reqs)
	resNo := eNo.RunOffline(reqs, traces)

	eDS, _ := newTinyEngine(t, baselines.NewDeepSpeed(), nil)
	resDS := eDS.RunOffline(reqs, traces)

	if resDS.MeanTPOT <= resNo.MeanTPOT {
		t.Fatalf("DeepSpeed TPOT %.2f not worse than No-offload %.2f", resDS.MeanTPOT, resNo.MeanTPOT)
	}
	if resDS.MeanTTFT <= resNo.MeanTTFT {
		t.Fatalf("DeepSpeed TTFT %.2f not worse than No-offload %.2f", resDS.MeanTTFT, resNo.MeanTTFT)
	}
}

func TestMetricsShape(t *testing.T) {
	e, m := newTinyEngine(t, baselines.NewDeepSpeed(), nil)
	reqs := testReqs(moe.Tiny(), 4, 5)
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if len(res.Requests) != 4 {
		t.Fatalf("request metrics %d", len(res.Requests))
	}
	for _, r := range res.Requests {
		if r.TTFTms <= 0 || r.E2Ems < r.TTFTms {
			t.Fatalf("bad request metrics %+v", r)
		}
		if r.OutputTokens > 1 && r.TPOTms <= 0 {
			t.Fatalf("missing TPOT %+v", r)
		}
		if r.Hits+r.Misses == 0 {
			t.Fatalf("no activations recorded %+v", r)
		}
	}
	// Iterations = sum of per-request iterations (batch size 1).
	want := 0
	for _, q := range reqs {
		want += q.OutputTokens
	}
	if res.Iterations != want {
		t.Fatalf("iterations %d, want %d", res.Iterations, want)
	}
	if res.Breakdown[policy.CompInfer.String()] <= 0 {
		t.Fatalf("no inference time in breakdown: %v", res.Breakdown)
	}
	if res.GPUMemoryBytes <= 0 {
		t.Fatal("no memory footprint")
	}
}

func TestFineMoEBeatsOnDemandLatency(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	storeReqs := testReqs(cfg, 24, 6)
	testSet := workload.Dataset{Name: "test", Topics: 8, TopicSpread: 0.12, MeanInput: 6, MeanOutput: 6, Seed: 42}.
		Sample(workload.Options{Dim: cfg.SemDim, N: 6, Seed: 99, FixedLengths: true, IDBase: 1000})

	storeTraces := buildTraces(m, storeReqs)
	testTraces := buildTraces(m, testSet)

	store := core.BuildStore(cfg, 300, 2, storeTraces)
	fine := core.NewFineMoE(store, core.Options{PrefetchDistance: 2})
	eF := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2, CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2, Policy: fine})
	resF := eF.RunOffline(testSet, testTraces)

	eD := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2, CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2, Policy: baselines.NewDeepSpeed()})
	resD := eD.RunOffline(testSet, testTraces)

	if resF.MeanTPOT >= resD.MeanTPOT {
		t.Fatalf("FineMoE TPOT %.2f not better than DeepSpeed %.2f", resF.MeanTPOT, resD.MeanTPOT)
	}
	if resF.HitRate < 0.5 {
		t.Fatalf("FineMoE hit rate %.3f too low with a populated store", resF.HitRate)
	}
	if resF.LinkStats.Prefetches == 0 {
		t.Fatal("FineMoE issued no prefetches")
	}
	if resF.PolicyOverheadBytes == 0 {
		t.Fatal("FineMoE reported no store memory")
	}
}

func TestBatchedOffline(t *testing.T) {
	cfg := moe.Tiny()
	reqs := testReqs(cfg, 4, 4)
	e, m := newTinyEngine(t, baselines.NewDeepSpeed(), func(o *Options) { o.BatchSize = 4 })
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	if len(res.Requests) != 4 {
		t.Fatalf("requests %d", len(res.Requests))
	}
	// Lockstep batch: 4 output tokens => 4 iterations total.
	if res.Iterations != 4 {
		t.Fatalf("batched iterations %d, want 4", res.Iterations)
	}
}

func TestBatchIncreasesIterationCost(t *testing.T) {
	cfg := moe.Tiny()
	reqs := testReqs(cfg, 4, 6)
	e1, m := newTinyEngine(t, baselines.NewDeepSpeed(), func(o *Options) { o.BatchSize = 1 })
	traces := buildTraces(m, reqs)
	r1 := e1.RunOffline(reqs, traces)
	e4, _ := newTinyEngine(t, baselines.NewDeepSpeed(), func(o *Options) { o.BatchSize = 4 })
	r4 := e4.RunOffline(reqs, traces)
	// Batched serving must finish the whole workload faster (throughput)
	// even though per-iteration cost grows.
	if r4.WallClockMS >= r1.WallClockMS {
		t.Fatalf("batching did not improve makespan: %v vs %v", r4.WallClockMS, r1.WallClockMS)
	}
}

func TestOnlineRun(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	d := workload.Dataset{Name: "test", Topics: 8, TopicSpread: 0.12, MeanInput: 6, MeanOutput: 4, Seed: 42}
	trace := workload.AzureTrace(d, cfg.SemDim, workload.TraceConfig{RatePerSec: 20, N: 12, Seed: 3})
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
		Policy:     baselines.NewMoEInfinity(baselines.NewEAMCollection(cfg)), MaxBatch: 4})
	res := e.RunOnline(trace, buildTraces(m, trace))
	if len(res.Requests) != 12 {
		t.Fatalf("served %d of 12", len(res.Requests))
	}
	for _, r := range res.Requests {
		if r.TTFTms <= 0 {
			t.Fatalf("bad TTFT %+v", r)
		}
		if r.EndMS < r.ArrivalMS {
			t.Fatalf("finished before arrival %+v", r)
		}
		if r.E2Ems < r.TTFTms {
			t.Fatalf("E2E below TTFT %+v", r)
		}
	}
	if res.WallClockMS <= 0 {
		t.Fatal("no makespan")
	}
}

func TestOnlineQueueingUnderLoad(t *testing.T) {
	// With MaxBatch 1 and a burst of arrivals, later requests must queue:
	// TTFT grows across the trace.
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	d := workload.Dataset{Name: "test", Topics: 8, TopicSpread: 0.12, MeanInput: 6, MeanOutput: 4, Seed: 42}
	trace := workload.AzureTrace(d, cfg.SemDim, workload.TraceConfig{RatePerSec: 1000, N: 6, Seed: 4})
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
		Policy:     baselines.NewDeepSpeed(), MaxBatch: 1})
	res := e.RunOnline(trace, buildTraces(m, trace))
	var first, last float64
	for _, r := range res.Requests {
		if r.ID == trace[0].ID {
			first = r.TTFTms
		}
		if r.ID == trace[len(trace)-1].ID {
			last = r.TTFTms
		}
	}
	if last <= first {
		t.Fatalf("no queueing delay: first TTFT %.2f, last %.2f", first, last)
	}
}

func TestMixtralOffloadHitRateHigh(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	reqs := testReqs(cfg, 4, 6)
	traces := buildTraces(m, reqs)
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
		Policy:     baselines.NewMixtralOffload(m)})
	res := e.RunOffline(reqs, traces)
	// Synchronous d=1 speculation: hits should be well above the
	// residency baseline.
	if res.HitRate < 0.6 {
		t.Fatalf("Mixtral-Offload hit rate %.3f too low", res.HitRate)
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil model", func() { New(Options{Policy: baselines.NewNoOffload()}) })
	mustPanic("nil policy", func() { New(Options{Model: m}) })
}

func TestHitRateConsistency(t *testing.T) {
	// Engine-level hit rate must equal aggregated per-request counts for
	// batch size 1.
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	reqs := testReqs(cfg, 3, 4)
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
		Policy:     baselines.NewProMoE(m)})
	res := e.RunOffline(reqs, buildTraces(m, reqs))
	var hits, misses int
	for _, r := range res.Requests {
		hits += r.Hits
		misses += r.Misses
	}
	got := float64(hits) / float64(hits+misses)
	if math.Abs(got-res.HitRate) > 1e-9 {
		t.Fatalf("hit rate mismatch: requests %.4f vs engine %.4f", got, res.HitRate)
	}
}

func TestTraceOfFallsBackToSimulation(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	reqs := testReqs(cfg, 1, 3)
	e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 1,
		CacheBytes: cfg.ExpertBytes() * 4, Policy: baselines.NewDeepSpeed()})
	res := e.RunOffline(reqs, nil) // no precomputed traces
	if len(res.Requests) != 1 {
		t.Fatal("fallback simulation failed")
	}
}

func TestDefaultCacheBytes(t *testing.T) {
	cfg := moe.Mixtral8x7B()
	m := moe.NewModel(cfg, 1)
	e := New(Options{Model: m, GPU: memsim.RTX3090(), NumGPUs: 6, Policy: baselines.NewNoOffload()})
	if e.opts.CacheBytes <= 0 {
		t.Fatal("default cache budget not derived")
	}
	if e.opts.CacheBytes > cfg.TotalExpertBytes() {
		t.Fatal("default cache larger than all experts")
	}
}

func TestSpeculationOracleSanity(t *testing.T) {
	// The hidden states exposed in LayerView must drive speculation with
	// reasonable accuracy at distance 1 (Mixtral-Offload's premise).
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 31)
	it := m.Trace(testReqs(cfg, 1, 4)[0].PromptSpec)[1]
	probs := make([]float64, cfg.RoutedExperts)
	var overlap float64
	var n int
	for l := 1; l < cfg.Layers; l++ {
		m.Speculate(it.Hidden[l-1], l, probs)
		overlap += tensor.OverlapRatio(it.Active[l], tensor.TopK(probs, cfg.TopK))
		n++
	}
	if overlap/float64(n) < 0.5 {
		t.Fatalf("d=1 speculation accuracy %.3f too low", overlap/float64(n))
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := moe.Tiny()
	run := func() *Result {
		m := moe.NewModel(cfg, 77)
		reqs := testReqs(cfg, 3, 4)
		e := New(Options{Model: m, GPU: testGPU(), NumGPUs: 2,
			CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()) / 2,
			Policy:     baselines.NewMixtralOffload(m)})
		return e.RunOffline(reqs, nil)
	}
	a, b := run(), run()
	if a.MeanTPOT != b.MeanTPOT || a.MeanTTFT != b.MeanTTFT || a.HitRate != b.HitRate {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

package cluster

import (
	"encoding/json"
	"math"
	"testing"

	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

func testGPU() memsim.GPUSpec {
	return memsim.GPUSpec{
		Name: "test-gpu", MemBytes: 1 << 30, HBMGBps: 100,
		FP16TFLOPS: 10, PCIeGBps: 1, PerLayerOverheadMS: 0.5,
	}
}

// testEngines builds n fresh FineMoE engines over the tiny model.
func testEngines(m *moe.Model, n int) []*serve.Engine {
	cfg := m.Cfg
	out := make([]*serve.Engine, n)
	for i := range out {
		pol := core.NewFineMoE(core.NewStore(cfg, 50, 2), core.Options{})
		out[i] = serve.New(serve.Options{
			Model: m, GPU: testGPU(), NumGPUs: 1,
			CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()/2),
			Policy:     pol,
		})
	}
	return out
}

// stagedEngines builds n engines over the three-tier HBM/DRAM/NVMe
// hierarchy with DRAM bounded to a handful of experts, so runs are
// staging-heavy: most fetches route through the shared staging link.
func stagedEngines(m *moe.Model, n int) []*serve.Engine {
	cfg := m.Cfg
	out := make([]*serve.Engine, n)
	for i := range out {
		pol := core.NewFineMoE(core.NewStore(cfg, 50, 2), core.Options{})
		out[i] = serve.New(serve.Options{
			Model: m, GPU: testGPU(), NumGPUs: 1,
			CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()/3),
			Policy:     pol,
			Memory:     memsim.ThreeTier(4 * cfg.ExpertBytes()),
		})
	}
	return out
}

func testDataset() workload.Dataset {
	return workload.Dataset{
		Name: "cluster-test", Topics: 6, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, Seed: 99,
	}
}

func testTrace(cfg moe.Config, n int, rate float64, seed uint64) []workload.Request {
	return workload.AzureTrace(testDataset(), cfg.SemDim, workload.TraceConfig{
		RatePerSec: rate, N: n, Seed: seed,
	})
}

// testSource streams the requests testTrace materializes.
func testSource(cfg moe.Config, n int, rate float64, seed uint64) workload.Source {
	return workload.StreamOnline(testDataset(), cfg.SemDim, workload.OnlineOptions{
		Arrivals: workload.Poisson{RatePerSec: rate}, N: n, Seed: seed,
	})
}

func req(id uint64, arrival float64) workload.Request {
	return workload.Request{
		PromptSpec: moe.PromptSpec{ID: id, InputTokens: 4, OutputTokens: 2},
		ArrivalMS:  arrival,
	}
}

// --- admission policies ------------------------------------------------------

func TestAlwaysAdmit(t *testing.T) {
	a := NewAlwaysAdmit()
	if a.Name() != "always-admit" {
		t.Fatalf("name = %q", a.Name())
	}
	for i := 0; i < 10; i++ {
		if !a.Admit(req(uint64(i), 0), 0, nil) {
			t.Fatal("always-admit rejected a request")
		}
	}
}

func TestRejectAll(t *testing.T) {
	a := NewRejectAll()
	if a.Name() != "reject-all" {
		t.Fatalf("name = %q", a.Name())
	}
	for i := 0; i < 10; i++ {
		if a.Admit(req(uint64(i), 0), 0, nil) {
			t.Fatal("reject-all admitted a request")
		}
	}
}

func TestTokenBucketBurstAndRefill(t *testing.T) {
	b := NewTokenBucket(3, 1) // 3-deep bucket, 1 token/s
	// The initial burst drains the bucket.
	for i := 0; i < 3; i++ {
		if !b.Admit(req(uint64(i), 0), 0, nil) {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	if b.Admit(req(3, 0), 0, nil) {
		t.Fatal("admitted past bucket capacity")
	}
	// 500 ms refills only half a token.
	if b.Admit(req(4, 500), 500, nil) {
		t.Fatal("admitted on a half-refilled bucket")
	}
	// A full second after the burst there is one token (the 500 ms
	// half-token plus another half).
	if !b.Admit(req(5, 1000), 1000, nil) {
		t.Fatal("rejected after refill")
	}
	if b.Admit(req(6, 1000), 1000, nil) {
		t.Fatal("admitted two requests off one refilled token")
	}
	// Refill caps at capacity: after a long idle gap only 3 pass.
	admitted := 0
	for i := 0; i < 5; i++ {
		if b.Admit(req(uint64(10+i), 1e6), 1e6, nil) {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("after idle gap admitted %d, want capacity 3", admitted)
	}
}

// --- routers -----------------------------------------------------------------

func fleetOf(loads ...int) []InstanceState {
	out := make([]InstanceState, len(loads))
	for i, l := range loads {
		out[i] = InstanceState{ID: i, QueueDepth: l}
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	r := NewRoundRobin()
	fleet := fleetOf(0, 0, 0)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := r.Route(req(uint64(i), 0), 0, fleet); got != w {
			t.Fatalf("route %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedPicksShortestQueue(t *testing.T) {
	r := NewLeastLoaded()
	if got := r.Route(req(0, 0), 0, fleetOf(4, 1, 2)); got != 1 {
		t.Fatalf("route = %d, want 1", got)
	}
	// In-flight requests count toward load.
	fleet := fleetOf(1, 1, 1)
	fleet[0].QueueDepth = 0
	fleet[0].InFlight = 5
	if got := r.Route(req(0, 0), 0, fleet); got != 1 {
		t.Fatalf("route = %d, want 1 (in-flight ignored?)", got)
	}
	// Ties break toward the lowest index.
	if got := r.Route(req(0, 0), 0, fleetOf(2, 2, 2)); got != 0 {
		t.Fatalf("tie route = %d, want 0", got)
	}
}

func embReq(id uint64, emb []float64) workload.Request {
	return workload.Request{PromptSpec: moe.PromptSpec{ID: id, Embedding: emb}}
}

func TestSemanticAffinityStickiness(t *testing.T) {
	r := NewSemanticAffinity(SemanticAffinityOptions{})
	fleet := fleetOf(0, 0, 0, 0)
	a := []float64{1, 0, 0, 0}
	b := []float64{0, 1, 0, 0}

	// An unseen prompt falls back to least-loaded (instance 0), and the
	// topic sticks there for later similar prompts.
	first := r.Route(embReq(1, a), 0, fleet)
	if first != 0 {
		t.Fatalf("first route = %d, want least-loaded fallback 0", first)
	}
	// A different topic lands elsewhere once instance 0 carries load.
	fleet[0].QueueDepth = 1
	other := r.Route(embReq(2, b), 0, fleet)
	if other == first {
		t.Fatalf("distinct topic routed to the same instance %d", other)
	}
	// Similar prompts follow their topic's instance even when it is not
	// the least loaded.
	fleet[first].QueueDepth = 2
	if got := r.Route(embReq(3, a), 0, fleet); got != first {
		t.Fatalf("topic a re-route = %d, want sticky %d", got, first)
	}
	if got := r.Route(embReq(4, b), 0, fleet); got != other {
		t.Fatalf("topic b re-route = %d, want sticky %d", got, other)
	}
}

func TestSemanticAffinityLoadGuard(t *testing.T) {
	r := NewSemanticAffinity(SemanticAffinityOptions{LoadSlack: 2})
	fleet := fleetOf(0, 0)
	a := []float64{1, 0, 0}
	if got := r.Route(embReq(1, a), 0, fleet); got != 0 {
		t.Fatalf("first route = %d, want 0", got)
	}
	// Once the affine instance is far over the shortest queue, load
	// balancing overrides affinity.
	fleet[0].QueueDepth = 5
	if got := r.Route(embReq(2, a), 0, fleet); got != 1 {
		t.Fatalf("overloaded route = %d, want spill to 1", got)
	}
}

// --- cluster pipeline --------------------------------------------------------

func TestClusterRejectAllServesNothing(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	c := New(Options{Engines: testEngines(m, 2), Admission: NewRejectAll()})
	res := c.RunTrace(testTrace(m.Cfg, 8, 50, 3))
	if res.Served != 0 || res.Rejected != 8 || res.Admitted != 0 {
		t.Fatalf("served %d rejected %d admitted %d, want 0/8/0",
			res.Served, res.Rejected, res.Admitted)
	}
}

func TestClusterServesEveryAdmittedRequest(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	const n = 12
	c := New(Options{Engines: testEngines(m, 3), Router: NewRoundRobin()})
	res := c.RunTrace(testTrace(m.Cfg, n, 50, 3))
	if res.Admitted != n || res.Served != n || res.Rejected != 0 {
		t.Fatalf("admitted %d served %d rejected %d, want %d/%d/0",
			res.Admitted, res.Served, res.Rejected, n, n)
	}
	// Round-robin spreads evenly.
	for _, ir := range res.Instances {
		if ir.Submitted != n/3 {
			t.Fatalf("instance %d got %d requests, want %d", ir.ID, ir.Submitted, n/3)
		}
	}
	// Fleet summaries cover every request.
	if res.TTFT.N != n || res.E2E.N != n {
		t.Fatalf("fleet summary over %d/%d requests, want %d", res.TTFT.N, res.E2E.N, n)
	}
	if res.MeanTTFT <= 0 || res.WallClockMS <= 0 {
		t.Fatalf("degenerate fleet metrics: %+v", res)
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("hit rate %v out of range", res.HitRate)
	}
}

func TestClusterTokenBucketSheds(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	// 2-deep bucket refilling at 1 token/s against a ~50 req/s burst of 10
	// requests: most of the burst must shed.
	c := New(Options{
		Engines:   testEngines(m, 2),
		Admission: NewTokenBucket(2, 1),
	})
	res := c.RunTrace(testTrace(m.Cfg, 10, 50, 3))
	if res.Rejected == 0 {
		t.Fatal("token bucket shed nothing under a burst")
	}
	if res.Admitted+res.Rejected != 10 {
		t.Fatalf("admission accounting broken: %d + %d != 10", res.Admitted, res.Rejected)
	}
	if res.Served != res.Admitted {
		t.Fatalf("served %d != admitted %d", res.Served, res.Admitted)
	}
}

// runOnce executes one fixed 4-instance cluster run and returns the
// JSON-encoded result.
func runOnce(t *testing.T, router Router, seed uint64) []byte {
	t.Helper()
	m := moe.NewModel(moe.Tiny(), seed)
	c := New(Options{
		Engines:   testEngines(m, 4),
		Admission: NewTokenBucket(16, 40),
		Router:    router,
	})
	res := c.RunTrace(testTrace(m.Cfg, 32, 30, seed))
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestClusterDeterminismProperty mirrors engine_property_test.go at fleet
// scope: the same seed and trace must yield a byte-identical Result,
// whatever the router.
func TestClusterDeterminismProperty(t *testing.T) {
	routers := []func() Router{
		NewRoundRobin,
		NewLeastLoaded,
		func() Router { return NewSemanticAffinity(SemanticAffinityOptions{}) },
	}
	for _, mk := range routers {
		for seed := uint64(1); seed <= 3; seed++ {
			a := runOnce(t, mk(), seed)
			b := runOnce(t, mk(), seed)
			if string(a) != string(b) {
				t.Fatalf("%s: seed %d not deterministic", mk().Name(), seed)
			}
		}
	}
}

// TestClusterSharedClockOrdering: instance virtual clocks never run
// backwards and the fleet makespan bounds every instance.
func TestClusterSharedClockOrdering(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	c := New(Options{Engines: testEngines(m, 3), Router: NewLeastLoaded()})
	trace := testTrace(m.Cfg, 16, 40, 5)
	for _, q := range trace {
		if got := c.Offer(q); got < 0 {
			t.Fatalf("always-admit rejected %d", q.ID)
		}
		for c.Step(q.ArrivalMS) {
		}
	}
	wall := c.Drain()
	res := c.Finalize()
	if res.Served != 16 {
		t.Fatalf("served %d, want 16", res.Served)
	}
	if math.Abs(wall-res.WallClockMS) > 1e-9 {
		t.Fatalf("Drain wall %v != result wall %v", wall, res.WallClockMS)
	}
	for _, ir := range res.Instances {
		if ir.Result.WallClockMS > res.WallClockMS+1e-9 {
			t.Fatalf("instance %d clock %v beyond fleet makespan %v",
				ir.ID, ir.Result.WallClockMS, res.WallClockMS)
		}
	}
}

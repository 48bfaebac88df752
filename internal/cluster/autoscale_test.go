package cluster

import (
	"encoding/json"
	"math"
	"testing"

	"finemoe/internal/core"
	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// --- queue-pressure policy ---------------------------------------------------

func pressureFleet(loads ...int) []InstanceState {
	out := make([]InstanceState, len(loads))
	for i, l := range loads {
		out[i] = InstanceState{ID: i, QueueDepth: l}
	}
	return out
}

func TestQueuePressureGrowAfterSustainedPressure(t *testing.T) {
	q := NewQueuePressure(QueuePressureOptions{
		HighWatermark: 4, LowWatermark: 1, SustainMS: 100, CooldownMS: 100,
	})
	// Above the high watermark but not yet sustained: hold.
	if d := q.Decide(0, pressureFleet(10)); d != Hold {
		t.Fatalf("tick 0: %v, want Hold", d)
	}
	if d := q.Decide(50, pressureFleet(10)); d != Hold {
		t.Fatalf("tick 50: %v, want Hold", d)
	}
	// Sustained for the full window: grow.
	if d := q.Decide(100, pressureFleet(10)); d != Grow {
		t.Fatalf("tick 100: %v, want Grow", d)
	}
	// Cooldown paces the next action even under continued pressure.
	if d := q.Decide(150, pressureFleet(10)); d != Hold {
		t.Fatalf("tick 150 (cooldown): %v, want Hold", d)
	}
	if d := q.Decide(200, pressureFleet(10)); d != Grow {
		t.Fatalf("tick 200: %v, want Grow", d)
	}
}

func TestQueuePressureShrinkWhenIdle(t *testing.T) {
	q := NewQueuePressure(QueuePressureOptions{
		HighWatermark: 4, LowWatermark: 1, SustainMS: 100, CooldownMS: 100,
	})
	for _, tick := range []float64{0, 50} {
		if d := q.Decide(tick, pressureFleet(0, 0)); d != Hold {
			t.Fatalf("tick %v: want Hold", tick)
		}
	}
	if d := q.Decide(100, pressureFleet(0, 0)); d != Shrink {
		t.Fatal("sustained idle fleet did not shrink")
	}
}

// TestQueuePressureRefusedDecisionDoesNotChargeCooldown: a decision the
// cluster refuses at its fleet bounds (e.g. Grow while pinned at
// MaxInstances) must not push the next real resize a cooldown window
// into the future.
func TestQueuePressureRefusedDecisionDoesNotChargeCooldown(t *testing.T) {
	opts := QueuePressureOptions{
		HighWatermark: 4, LowWatermark: 1, SustainMS: 100, CooldownMS: 1000,
	}
	q := NewQueuePressure(opts)
	q.Decide(0, pressureFleet(10))
	if d := q.Decide(100, pressureFleet(10)); d != Grow {
		t.Fatalf("sustained pressure: %v, want Grow", d)
	}
	q.(DecisionFeedback).DecisionApplied(Grow, false) // fleet at MaxInstances
	// Load collapses; once idle is sustained, the shrink must not wait
	// out a cooldown charged to the refused grow.
	q.Decide(150, pressureFleet(0))
	if d := q.Decide(250, pressureFleet(0)); d != Shrink {
		t.Fatalf("post-refusal shrink: %v, want Shrink", d)
	}

	// An applied decision still charges the cooldown.
	q2 := NewQueuePressure(opts)
	q2.Decide(0, pressureFleet(10))
	if d := q2.Decide(100, pressureFleet(10)); d != Grow {
		t.Fatal("sustained pressure did not grow")
	}
	q2.(DecisionFeedback).DecisionApplied(Grow, true)
	q2.Decide(150, pressureFleet(0))
	if d := q2.Decide(250, pressureFleet(0)); d != Hold {
		t.Fatalf("cooldown after applied grow: %v, want Hold", d)
	}
}

// TestQueuePressureHysteresisNoFlap: a queue oscillating across both
// watermarks every tick keeps resetting the sustain timers, so the
// policy holds forever instead of flapping grow/shrink.
func TestQueuePressureHysteresisNoFlap(t *testing.T) {
	q := NewQueuePressure(QueuePressureOptions{
		HighWatermark: 4, LowWatermark: 1, SustainMS: 100, CooldownMS: 100,
	})
	for i := 0; i < 100; i++ {
		fleet := pressureFleet(0)
		if i%2 == 0 {
			fleet = pressureFleet(10)
		}
		if d := q.Decide(float64(i)*60, fleet); d != Hold {
			t.Fatalf("tick %d: oscillating load produced %v, want Hold", i, d)
		}
	}
	// Loads inside the dead band also reset the timers.
	q2 := NewQueuePressure(QueuePressureOptions{
		HighWatermark: 4, LowWatermark: 1, SustainMS: 100, CooldownMS: 100,
	})
	seq := []int{10, 2, 10, 2, 10}
	for i, l := range seq {
		if d := q2.Decide(float64(i)*60, pressureFleet(l)); d != Hold {
			t.Fatalf("band tick %d: %v, want Hold", i, d)
		}
	}
}

// --- router resize contract --------------------------------------------------

// fleetIDs builds an idle fleet view with the given stable IDs.
func fleetIDs(ids ...int) []InstanceState {
	out := make([]InstanceState, len(ids))
	for i, id := range ids {
		out[i] = InstanceState{ID: id}
	}
	return out
}

// TestRoundRobinCursorSurvivesShrink: the cursor tracks instance
// identity, so removing a replica mid-cycle neither double-routes nor
// skips the survivors.
func TestRoundRobinCursorSurvivesShrink(t *testing.T) {
	r := NewRoundRobin()
	full := fleetIDs(0, 1, 2)
	if got := r.Route(req(0, 0), 0, full); full[got].ID != 0 {
		t.Fatalf("first route -> ID %d, want 0", full[got].ID)
	}
	if got := r.Route(req(1, 0), 0, full); full[got].ID != 1 {
		t.Fatalf("second route -> ID %d, want 1", full[got].ID)
	}
	// Instance 2 retires; the cursor (last-routed ID 1) must advance to
	// the next surviving ID, wrapping over the gap.
	shrunk := fleetIDs(0, 1)
	if got := r.Route(req(2, 0), 0, shrunk); shrunk[got].ID != 0 {
		t.Fatalf("post-shrink route -> ID %d, want wrap to 0", shrunk[got].ID)
	}
	// Instance 1 retires, instance 3 joins: continue in ID order.
	resized := fleetIDs(0, 3)
	if got := r.Route(req(3, 0), 0, resized); resized[got].ID != 3 {
		t.Fatalf("post-grow route -> ID %d, want 3", resized[got].ID)
	}
	if got := r.Route(req(4, 0), 0, resized); resized[got].ID != 0 {
		t.Fatalf("wrap route -> ID %d, want 0", resized[got].ID)
	}
}

// TestSemanticAffinityIdentityAcrossShrink: centroid memory is keyed by
// instance ID, so when the fleet changes shape, a learned topic follows
// its instance rather than whatever replica now occupies the old index.
func TestSemanticAffinityIdentityAcrossShrink(t *testing.T) {
	r := NewSemanticAffinity(SemanticAffinityOptions{})
	a := []float64{1, 0, 0, 0}

	// Teach topic a to instance ID 2 (index 2 of the full fleet): IDs 0
	// and 1 carry load, so least-loaded fallback places it on ID 2.
	full := fleetIDs(0, 1, 2)
	full[0].QueueDepth, full[1].QueueDepth = 1, 1
	if got := r.Route(embReq(1, a), 0, full); full[got].ID != 2 {
		t.Fatalf("topic seeded on ID %d, want 2", full[got].ID)
	}

	// Instance 1 retires. ID 2 now sits at index 1; an index-keyed
	// memory would look up the old position and misattribute the topic.
	shrunk := fleetIDs(0, 2)
	shrunk[0].QueueDepth = 1
	if got := r.Route(embReq(2, a), 0, shrunk); shrunk[got].ID != 2 {
		t.Fatalf("post-shrink topic routed to ID %d, want sticky 2", shrunk[got].ID)
	}
}

// TestSemanticAffinityForgetsRetiredInstance: when the affine instance
// leaves the fleet its centroids are dropped, so the topic migrates via
// the fallback instead of sticking to a stale ID — and a later instance
// reusing the slot position inherits nothing.
func TestSemanticAffinityForgetsRetiredInstance(t *testing.T) {
	r := NewSemanticAffinity(SemanticAffinityOptions{})
	a := []float64{1, 0, 0, 0}

	full := fleetIDs(0, 1)
	full[0].QueueDepth = 1
	if got := r.Route(embReq(1, a), 0, full); full[got].ID != 1 {
		t.Fatalf("topic seeded on ID %d, want 1", full[got].ID)
	}
	// ID 1 retires; ID 3 joins later. The topic's memory must not
	// transfer to the newcomer: with an evenly idle fleet the fallback
	// places it on the lowest index.
	resized := fleetIDs(0, 3)
	if got := r.Route(embReq(2, a), 0, resized); resized[got].ID != 0 {
		t.Fatalf("retired topic re-seeded on ID %d, want fallback 0", resized[got].ID)
	}
	sa := r.(*semanticAffinity)
	if _, stale := sa.centroids[1]; stale {
		t.Fatal("centroid memory of retired instance 1 not dropped")
	}
}

// TestSemanticAffinityEvictionCompacts: evicting the oldest centroid
// must not retain it through the slice's backing array, so the memory
// footprint stays bounded on long-running fleets.
func TestSemanticAffinityEvictionCompacts(t *testing.T) {
	r := NewSemanticAffinity(SemanticAffinityOptions{MaxCentroids: 4, MinSim: 0.99, MergeSim: 0.999}).(*semanticAffinity)
	fleet := fleetIDs(0)
	dim := 16
	for i := 0; i < 1000; i++ {
		emb := make([]float64, dim)
		emb[i%dim] = 1 // orthogonal-ish, never merged
		r.Route(embReq(uint64(i), emb), 0, fleet)
	}
	cs := r.centroids[0]
	if len(cs) != 4 {
		t.Fatalf("centroid count %d, want cap 4", len(cs))
	}
	if cap(cs) > 8 {
		t.Fatalf("centroid backing array cap %d after 1000 evictions; compaction leak", cap(cs))
	}
}

// --- autoscaled cluster lifecycle --------------------------------------------

// autoscaleFactory builds scale-up engines identical to testEngines'.
func autoscaleFactory(m *moe.Model) func(int) *serve.Engine {
	return func(int) *serve.Engine {
		cfg := m.Cfg
		pol := core.NewFineMoE(core.NewStore(cfg, 50, 2), core.Options{})
		return serve.New(serve.Options{
			Model: m, GPU: testGPU(), NumGPUs: 1,
			CacheBytes: cfg.ExpertBytes() * int64(cfg.NumExperts()/2),
			Policy:     pol,
		})
	}
}

// autoscaleTestTrace is a burst that overwhelms one instance followed by
// a sparse tail that leaves the grown fleet idle: grow then shrink.
func autoscaleTestTrace(cfg moe.Config, seed uint64) []workload.Request {
	burst := testTrace(cfg, 16, 400, seed)
	last := burst[len(burst)-1].ArrivalMS
	d := workload.Dataset{
		Name: "cluster-test-tail", Topics: 6, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, Seed: 99,
	}
	tail := workload.AzureTrace(d, cfg.SemDim, workload.TraceConfig{
		RatePerSec: 1, N: 6, Seed: seed + 1, IDBase: 1 << 33,
	})
	for i := range tail {
		tail[i].ArrivalMS += last
	}
	return append(burst, tail...)
}

func autoscaledCluster(m *moe.Model) *Cluster {
	return New(Options{
		Engines: testEngines(m, 1),
		Router:  NewLeastLoaded(),
		Autoscaler: NewQueuePressure(QueuePressureOptions{
			HighWatermark: 1.5, LowWatermark: 1.0, SustainMS: 20, CooldownMS: 20,
		}),
		EngineFactory:       autoscaleFactory(m),
		MinInstances:        1,
		MaxInstances:        3,
		AutoscaleIntervalMS: 10,
	})
}

// TestAutoscaledClusterGrowsAndShrinks is the lifecycle acceptance test:
// the fleet must grow under the burst, shrink in the tail, and neither
// lose nor corrupt any request's metrics across either transition.
func TestAutoscaledClusterGrowsAndShrinks(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	c := autoscaledCluster(m)
	trace := autoscaleTestTrace(m.Cfg, 3)
	res := c.RunTrace(trace)

	grows, shrinks := 0, 0
	for _, ev := range res.ScaleEvents {
		switch ev.Kind {
		case "grow":
			grows++
		case "shrink":
			shrinks++
		default:
			t.Fatalf("unknown scale event kind %q", ev.Kind)
		}
		if ev.ActiveAfter < 1 || ev.ActiveAfter > 3 {
			t.Fatalf("scale event left %d active instances, bounds [1,3]", ev.ActiveAfter)
		}
	}
	if grows == 0 {
		t.Fatal("burst did not grow the fleet")
	}
	if shrinks == 0 {
		t.Fatal("idle tail did not shrink the fleet")
	}

	// No request lost or corrupted across scale events.
	n := len(trace)
	if res.Admitted != n || res.Served != n || res.Rejected != 0 {
		t.Fatalf("admitted %d served %d rejected %d, want %d/%d/0",
			res.Admitted, res.Served, res.Rejected, n, n)
	}
	if res.TTFT.N != n || res.E2E.N != n {
		t.Fatalf("fleet summaries over %d/%d requests, want %d", res.TTFT.N, res.E2E.N, n)
	}
	perInstance := 0
	for _, ir := range res.Instances {
		perInstance += len(ir.Result.Requests)
		if ir.Submitted != len(ir.Result.Requests) {
			t.Fatalf("instance %d: %d routed but %d served", ir.ID, ir.Submitted, len(ir.Result.Requests))
		}
		for _, q := range ir.Result.Requests {
			if q.TTFTms < 0 || q.E2Ems < q.TTFTms {
				t.Fatalf("instance %d request %d corrupted metrics: %+v", ir.ID, q.ID, q)
			}
		}
		if ir.Retired && ir.RetiredMS < ir.StartedMS {
			t.Fatalf("instance %d retired at %v before starting at %v", ir.ID, ir.RetiredMS, ir.StartedMS)
		}
	}
	if perInstance != n {
		t.Fatalf("per-instance results cover %d requests, want %d", perInstance, n)
	}

	// Retired instances finished draining: no queued or in-flight work.
	retired := 0
	for _, in := range c.instances {
		if !in.Retiring {
			continue
		}
		retired++
		if in.Engine.QueueDepth() != 0 || in.Engine.InFlight() != 0 {
			t.Fatalf("retired instance %d still has work: queue %d in-flight %d",
				in.ID, in.Engine.QueueDepth(), in.Engine.InFlight())
		}
	}
	if retired == 0 {
		t.Fatal("no instance is marked retiring after shrink events")
	}

	// Elastic accounting: fewer instance-hours than peak-sized fixed
	// provisioning, and the peak respects the configured bound.
	if res.PeakInstances < 2 || res.PeakInstances > 3 {
		t.Fatalf("peak instances %d outside grown range [2,3]", res.PeakInstances)
	}
	fixedHours := float64(res.PeakInstances) * res.WallClockMS / 3.6e6
	if res.InstanceHours <= 0 || res.InstanceHours >= fixedHours {
		t.Fatalf("instance-hours %v not below peak-fixed %v", res.InstanceHours, fixedHours)
	}
}

// TestAutoscaledClusterDeterminism: autoscaled runs must stay
// byte-for-byte reproducible — scale events are part of the shared-clock
// event order, not a side effect.
func TestAutoscaledClusterDeterminism(t *testing.T) {
	run := func(seed uint64) []byte {
		m := moe.NewModel(moe.Tiny(), seed)
		res := autoscaledCluster(m).RunTrace(autoscaleTestTrace(m.Cfg, seed))
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if a, b := run(seed), run(seed); string(a) != string(b) {
			t.Fatalf("seed %d: autoscaled run not deterministic", seed)
		}
	}
}

// TestAutoscaleRequiresFactory: enabling autoscaling without a way to
// build instances is a configuration error, caught at construction.
func TestAutoscaleRequiresFactory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Autoscaler without EngineFactory")
		}
	}()
	m := moe.NewModel(moe.Tiny(), 7)
	New(Options{
		Engines:    testEngines(m, 1),
		Autoscaler: NewQueuePressure(QueuePressureOptions{}),
	})
}

// TestSingleInstanceFleetHitRateMatchesEngine pins the fleet-accounting
// fix: a 1-instance cluster's hit rate must equal its engine's own hit
// rate (engine-level batch-deduplicated counts), not a per-request
// re-aggregation that double-counts experts shared within a batch.
func TestSingleInstanceFleetHitRateMatchesEngine(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	c := New(Options{Engines: testEngines(m, 1)})
	res := c.RunTrace(testTrace(m.Cfg, 12, 100, 3)) // high rate = real batching
	ir := res.Instances[0].Result
	if math.Abs(res.HitRate-ir.HitRate) > 1e-12 {
		t.Fatalf("fleet hit rate %v != engine hit rate %v", res.HitRate, ir.HitRate)
	}
	if res.Hits != ir.Hits || res.Misses != ir.Misses {
		t.Fatalf("fleet hits/misses %d/%d != engine %d/%d",
			res.Hits, res.Misses, ir.Hits, ir.Misses)
	}
	if ir.Hits+ir.Misses == 0 {
		t.Fatal("degenerate run: no expert activity")
	}
}

// TestAutoscaleViaOfferDrain: autoscale ticks keep firing while the loop
// drains with no arrivals left — a burst offered up front must still grow
// the fleet during the drain, and the idle tail must shrink it.
func TestAutoscaleViaOfferDrain(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	c := autoscaledCluster(m)
	for _, q := range testTrace(m.Cfg, 24, 50, 3) {
		c.offer(q, nil)
	}
	res := c.RunTrace(nil)
	if len(res.ScaleEvents) == 0 {
		t.Fatal("no scale events while draining")
	}
	if res.PeakInstances < 2 {
		t.Fatalf("burst did not grow the fleet during drain: peak %d", res.PeakInstances)
	}
	if res.Served != 24 {
		t.Fatalf("served %d, want 24", res.Served)
	}
}

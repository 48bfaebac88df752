package cluster

import (
	"math"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
)

// checkHeapAgainstScan asserts the cached next-event heap and the seed's
// linear scan agree on the earliest instance event.
func checkHeapAgainstScan(t *testing.T, c *Cluster) {
	t.Helper()
	ht, hi := c.nextInstanceEvent()
	st, si := c.nextInstanceEventScan()
	if hi != si || (ht != st && !(math.IsInf(ht, 1) && math.IsInf(st, 1))) {
		t.Fatalf("heap (t=%v, i=%d) != scan (t=%v, i=%d)", ht, hi, st, si)
	}
}

// stepNext processes the fleet's earliest instance event if it falls at
// or before until, exactly as the shared-clock loop's instance branch
// does, and reports whether it did. Tests use it to interleave instance
// events with offers and autoscale ticks by hand.
func stepNext(c *Cluster, until float64) bool {
	tm, which := c.nextInstanceEvent()
	if which < 0 || tm > until {
		return false
	}
	c.instances[which].Engine.Step(tm)
	c.refreshEvent(which)
	c.observeCompletions(c.instances[which])
	return true
}

// TestNextEventHeapMatchesScan drives a fleet through offers, instance
// events and autoscale resizes, asserting after every operation that the
// cached next-event min tracking returns exactly what the seed's
// O(instances) scan would — same instance, same time, lowest-index
// tie-break included.
func TestNextEventHeapMatchesScan(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 17)
	c := New(Options{
		Engines: testEngines(m, 3),
		Autoscaler: NewQueuePressure(QueuePressureOptions{
			HighWatermark: 1.0, LowWatermark: 0.5, SustainMS: 1, CooldownMS: 1,
		}),
		EngineFactory: func(id int) *serve.Engine { return testEngines(m, 1)[0] },
		MinInstances:  1,
		MaxInstances:  6,
	})
	checkHeapAgainstScan(t, c)

	// Offer the whole trace up front: the queued backlog drives the
	// queue-pressure policy across its grow threshold when we tick.
	trace := testTrace(cfg, 40, 50, 3)
	for _, q := range trace {
		c.offer(q, nil)
		checkHeapAgainstScan(t, c)
	}
	tick := 0.0
	for i := 0; i < 6; i++ {
		tick += 25
		c.autoscale(tick)
		checkHeapAgainstScan(t, c)
	}
	// Interleave a few instance events with further ticks like the
	// shared-clock loop would.
	for i := 0; i < 10 && stepNext(c, math.Inf(1)); i++ {
		checkHeapAgainstScan(t, c)
		tick += 25
		c.autoscale(tick)
		checkHeapAgainstScan(t, c)
	}
	// Drain the rest one event at a time.
	for stepNext(c, math.Inf(1)) {
		checkHeapAgainstScan(t, c)
	}
	tm, which := c.nextInstanceEvent()
	if which != -1 || !math.IsInf(tm, 1) {
		t.Fatalf("drained fleet reports event (t=%v, i=%d)", tm, which)
	}
	if len(c.instances) <= 3 {
		t.Fatalf("autoscaler never grew the fleet (size %d) — the grow path went untested", len(c.instances))
	}
}

// TestNextEventHeapRunTraceParity: a full RunTrace must produce identical
// results before and after the heap change; since the seed is gone, pin
// the weaker invariant that two identical runs agree and that every
// request is served (the golden determinism tests pin the byte-level
// contract at the experiment layer).
func TestNextEventHeapRunTraceParity(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 23)
	trace := testTrace(cfg, 30, 40, 7)
	run := func() *Result {
		c := New(Options{Engines: testEngines(m, 4), Router: NewLeastLoaded()})
		return c.RunTrace(trace)
	}
	a, b := run(), run()
	if a.Served != len(trace) || b.Served != a.Served {
		t.Fatalf("served %d/%d and %d", a.Served, len(trace), b.Served)
	}
	if a.TTFT != b.TTFT || a.WallClockMS != b.WallClockMS {
		t.Fatalf("heap-based loop not deterministic: %+v vs %+v", a.TTFT, b.TTFT)
	}
}

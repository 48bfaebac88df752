package cluster

import (
	"math"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
)

// Heap-staleness audit. The cluster caches each engine's next event time
// in the event heap and refreshes it only at the loop's own mutation
// points. Staging-heavy engines move their next event time on almost
// every step (fetch completions, staging-link arrivals, batch
// boundaries), so a missed refresh shows up fastest there.

// TestHeapStalenessStagingHeavy interleaves offers, instance events and
// autoscale resizes over a staging-heavy three-tier fleet, cross-checking
// the cached heap against the linear scan after every single operation.
func TestHeapStalenessStagingHeavy(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 37)
	c := New(Options{
		Engines: stagedEngines(m, 3),
		Router:  NewLeastLoaded(),
		Autoscaler: NewQueuePressure(QueuePressureOptions{
			HighWatermark: 1.0, LowWatermark: 0.5, SustainMS: 1, CooldownMS: 1,
		}),
		EngineFactory: func(id int) *serve.Engine { return stagedEngines(m, 1)[0] },
		MinInstances:  1,
		MaxInstances:  6,
	})
	checkHeapAgainstScan(t, c)

	trace := testTrace(cfg, 48, 55, 41)
	tick := 0.0
	for i, q := range trace {
		c.offer(q, nil)
		checkHeapAgainstScan(t, c)
		// Step roughly half the backlog as we go so queues stay hot and
		// the staging link is saturated when later offers land.
		if i%2 == 1 && stepNext(c, math.Inf(1)) {
			checkHeapAgainstScan(t, c)
		}
		if i%8 == 7 {
			tick += 25
			c.autoscale(tick)
			checkHeapAgainstScan(t, c)
		}
	}
	steps := 0
	for stepNext(c, math.Inf(1)) {
		steps++
		checkHeapAgainstScan(t, c)
	}
	if steps == 0 {
		t.Fatal("degenerate run: no instance events stepped")
	}
}

// TestHeapStalenessRunTrace runs a staging-heavy fleet through RunTrace
// and cross-checks the heap at the end: the loop's own refresh points
// must leave the cache exactly where the scan finds it.
func TestHeapStalenessRunTrace(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 37)
	c := New(Options{Engines: stagedEngines(m, 4), Router: NewLeastLoaded()})
	c.RunTrace(testTrace(cfg, 40, 55, 41))
	checkHeapAgainstScan(t, c)
}

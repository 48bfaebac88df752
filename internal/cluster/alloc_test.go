package cluster

import (
	"runtime"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/raceflag"
	"finemoe/internal/workload"
)

// TestRunStreamSteadyStateAllocs guards the streaming loop's per-request
// allocation budget. The measured rate is about 1.2 allocations per
// request at -cpu 1 and 1.4 at -cpu 2. The largest share is the expert
// maps each store builds before it first fills (a full store recycles the
// maps it evicts); most of the rest warms pooled trace, cursor and cache
// buffers. A store that builds one map per iteration again costs about 16
// per request and fails the budget, as does a regression that reintroduces
// per-request maps, closures, or trace materialization into the hot loop
// — including gate traces that are simulated but never recycled.
func TestRunStreamSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 2000
	m := moe.NewModel(moe.Tiny(), 11)
	c := New(Options{
		Engines: testEngines(m, 4),
		Router:  NewLeastLoaded(),
	})
	src := workload.StreamOnline(streamDataset(31), moe.Tiny().SemDim,
		workload.OnlineOptions{Arrivals: workload.BurstyMMPP(60), N: n, Seed: 5})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := c.RunStream(src)
	runtime.ReadMemStats(&after)

	if res.Served != n {
		t.Fatalf("served %d of %d requests", res.Served, n)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("steady-state allocations per request: %.1f", perReq)
	const budget = 3
	if perReq > budget {
		t.Errorf("streaming loop allocates %.1f objects per request, budget %d", perReq, budget)
	}
}

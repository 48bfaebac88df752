package cluster

import (
	"testing"

	"finemoe/internal/workload"
)

// TestMemoryAwareRouterTiebreak verifies the memory-aware router joins
// the shortest queue first and breaks load ties toward the instance
// with the lowest host-memory pressure, then fewest routed requests.
func TestMemoryAwareRouterTiebreak(t *testing.T) {
	r := NewMemoryAware()
	req := workload.Request{}

	// Load dominates: the emptier queue wins despite higher pressure.
	fleet := []InstanceState{
		{ID: 0, QueueDepth: 3, MemPressure: 0.1},
		{ID: 1, QueueDepth: 1, MemPressure: 0.9},
	}
	if got := r.Route(req, 0, fleet); got != 1 {
		t.Fatalf("route %d, want the shorter queue 1", got)
	}

	// Equal load: DRAM headroom decides.
	fleet = []InstanceState{
		{ID: 0, QueueDepth: 2, MemPressure: 0.8},
		{ID: 1, QueueDepth: 2, MemPressure: 0.2},
		{ID: 2, QueueDepth: 2, MemPressure: 0.5},
	}
	if got := r.Route(req, 0, fleet); got != 1 {
		t.Fatalf("route %d, want lowest-pressure 1", got)
	}

	// Equal load and pressure: fewest submitted, then lowest index — the
	// least-loaded contract, so a degenerate fleet (all pressures zero)
	// routes identically to NewLeastLoaded.
	fleet = []InstanceState{
		{ID: 0, QueueDepth: 2, Submitted: 5},
		{ID: 1, QueueDepth: 2, Submitted: 3},
		{ID: 2, QueueDepth: 2, Submitted: 3},
	}
	if got := r.Route(req, 0, fleet); got != 1 {
		t.Fatalf("route %d, want fewest-submitted 1", got)
	}
	ll := NewLeastLoaded()
	for range [16]int{} {
		if lr, mr := ll.Route(req, 0, fleet), r.Route(req, 0, fleet); lr != mr {
			t.Fatalf("degenerate fleet diverged: least-loaded %d vs memory-aware %d", lr, mr)
		}
	}
}

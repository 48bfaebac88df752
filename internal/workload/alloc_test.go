package workload

import (
	"testing"

	"finemoe/internal/raceflag"
)

// TestArrivalStreamZeroAlloc pins the incremental arrival generators at
// zero steady-state allocations: Next advances O(1) accumulator state
// and returns a float64, so any allocation is a regression.
func TestArrivalStreamZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, p := range testProcesses() {
		s := p.Stream(7)
		var sink float64
		got := testing.AllocsPerRun(2000, func() { sink = s.Next() })
		if got != 0 {
			t.Errorf("%s: arrival stream allocates %.3f per Next, want 0", p.Name(), got)
		}
		_ = sink
	}
}

// TestStreamOnlineAmortizedAllocs pins the streaming trace generator's
// steady-state allocation rate. Each Next copies the embedding into an
// arena row (one block allocation per arenaRows requests) and derives
// topic directions at most once per topic, so the amortized rate must
// stay far below one allocation per request — the property that lets a
// 10M-request streaming run hold its heap to the in-flight window.
func TestStreamOnlineAmortizedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 4000
	src := StreamOnline(LMSYSChat1M(), 16, OnlineOptions{
		Arrivals: BurstyMMPP(50), N: runs + 100, Seed: 3,
	})
	// Warm the per-topic direction cache and the first arena block so
	// the measured window is pure steady state.
	for i := 0; i < 64; i++ {
		src.Next()
	}
	var sink Request
	got := testing.AllocsPerRun(runs, func() { sink, _ = src.Next() })
	if got > 0.05 {
		t.Errorf("StreamOnline allocates %.4f per Next, want amortized <= 0.05", got)
	}
	_ = sink
}

// TestSliceSourceZeroAlloc pins the materialized-trace adapter at zero
// allocations per Next: it only indexes the backing slice.
func TestSliceSourceZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	trace := OnlineTrace(LMSYSChat1M(), 16, OnlineOptions{
		Arrivals: Poisson{RatePerSec: 40}, N: 3000, Seed: 5,
	})
	src := NewSliceSource(trace)
	var sink Request
	got := testing.AllocsPerRun(2000, func() { sink, _ = src.Next() })
	if got != 0 {
		t.Errorf("SliceSource allocates %.3f per Next, want 0", got)
	}
	_ = sink
}

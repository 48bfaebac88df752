package serve

import (
	"testing"

	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/workload"
)

// S4 steady-state allocation guards. The cluster event loop multiplies
// Engine.Step across 32+ instances and a million requests; a single
// per-iteration allocation reappears as gigabytes of garbage at that
// scale. These tests pin the contract the finemoe-lint callalloc analyzer
// proves statically — mid-stream decode iterations allocate nothing — by
// measuring it dynamically, including the residency machine's
// fetch/evict/demote churn which the static proof cannot see end to end.

// nopPolicy is the minimal policy: no hooks, no state, LRU eviction.
type nopPolicy struct{ policy.Base }

func (*nopPolicy) Name() string { return "nop" }

// decodeEngine builds an engine mid-stream: one long-decode request
// admitted and past prefill, enough remaining tokens for the measured
// runs, with every remaining event a pure decode iteration.
func decodeEngine(t *testing.T, opts Options, tokens int) *Engine {
	t.Helper()
	cfg := opts.Model.Cfg
	emb := make([]float64, cfg.SemDim)
	emb[0] = 1
	req := workload.Request{
		PromptSpec: moe.PromptSpec{ID: 1, InputTokens: 4, OutputTokens: tokens, Embedding: emb},
	}
	e := New(opts)
	e.Submit(req)
	// Admission + prefill (allocates the runReq and gate trace — the
	// admitOne allocok exemption) happen outside the measured window.
	if !e.Step(e.NextEventTime()) {
		t.Fatal("prefill step refused")
	}
	if e.InFlight() != 1 || e.QueueDepth() != 0 {
		t.Fatalf("not mid-stream: in-flight %d, queued %d", e.InFlight(), e.QueueDepth())
	}
	return e
}

// measureDecodeAllocs runs n decode-only steps under AllocsPerRun,
// asserting the request neither completes nor re-enters admission inside
// the window.
func measureDecodeAllocs(t *testing.T, e *Engine, n int) float64 {
	t.Helper()
	got := testing.AllocsPerRun(n, func() {
		if !e.Step(e.NextEventTime()) {
			t.Fatal("decode step refused mid-stream")
		}
	})
	if e.InFlight() != 1 {
		t.Fatalf("request left the batch inside the measured window (in-flight %d)", e.InFlight())
	}
	return got
}

// TestStepDecodeZeroAlloc: with every expert resident the decode loop —
// admission scan, policy views, union/dedup scratch, cache lookups,
// metric accounting — allocates nothing per iteration.
func TestStepDecodeZeroAlloc(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	e := decodeEngine(t, Options{
		Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
		Policy:     &nopPolicy{},
		PreloadAll: true,
	}, 600)
	if got := measureDecodeAllocs(t, e, 500); got != 0 {
		t.Errorf("resident decode step allocates %.1f objects per iteration, want 0", got)
	}
}

// TestStepDecodeResidencyMachineZeroAlloc: with a cache far smaller than
// the working set over the three-tier hierarchy, every decode iteration
// misses, fetches through the staging link, inserts, evicts and demotes —
// and still allocates nothing once warm.
func TestStepDecodeResidencyMachineZeroAlloc(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 3)
	e := decodeEngine(t, Options{
		Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
		Policy:     &nopPolicy{},
		CacheBytes: cfg.ExpertBytes() * int64(cfg.Layers), // one expert per layer
		Memory:     memsim.ThreeTier(4 * cfg.ExpertBytes()),
	}, 600)
	// Warm the transfer machinery's internal buffers outside the window.
	for i := 0; i < 50; i++ {
		e.Step(e.NextEventTime())
	}
	if got := measureDecodeAllocs(t, e, 400); got != 0 {
		t.Errorf("staging-heavy decode step allocates %.1f objects per iteration, want 0", got)
	}
	if e.misses == 0 {
		t.Fatal("degenerate configuration: residency machine never exercised")
	}
}

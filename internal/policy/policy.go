// Package policy defines the contract between the serving engine and expert
// offloading policies. The engine drives inference iterations and exposes a
// Runtime for issuing weight transfers; policies (FineMoE and the four
// baselines) react to per-iteration and per-layer events by prefetching,
// synchronously loading, and scoring cache evictions.
package policy

import (
	"finemoe/internal/cache"
	"finemoe/internal/moe"
)

// IterView is the per-request information available when an iteration
// starts: the observed semantic embedding (embedding-layer output, §4.2.1)
// and the phase of the request.
type IterView struct {
	// ReqID identifies the request within the run.
	ReqID uint64
	// Iter is the iteration index (0 = prefill).
	Iter int
	// Semantic is the observed semantic embedding for this iteration.
	Semantic []float64
	// IsPrefill marks the prompt-processing iteration.
	IsPrefill bool
	// Tokens is the number of tokens this iteration processes.
	Tokens int
}

// LayerView is the per-request gate observation delivered after a layer's
// gate network runs: the probability distribution over the layer's experts
// and the hidden state feeding the gate (the signal speculative policies
// use).
type LayerView struct {
	ReqID  uint64
	Iter   int
	Probs  []float64
	Hidden []float64
}

// Runtime is the engine surface available to policies. All times are
// virtual milliseconds.
type Runtime interface {
	// Config returns the model being served.
	Config() moe.Config
	// Prefetch enqueues an asynchronous expert transfer. issueTime is
	// when the transfer may begin — policies add their own prediction
	// latency here so asynchronous search costs are modeled faithfully.
	// It returns false if the expert is already resident or in flight.
	Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool
	// SyncLoad blocks inference until every ref is resident and returns
	// the completion time. Used by synchronous designs (DeepSpeed,
	// Mixtral-Offloading, MoE-Infinity).
	SyncLoad(refs []moe.ExpertRef, now float64) float64
	// Resident reports whether the expert's weights are in GPU memory.
	Resident(ref moe.ExpertRef) bool
	// Tracked reports whether a transfer for ref is queued or in flight
	// on any link of the hierarchy (PCIe upload or deeper staging).
	Tracked(ref moe.ExpertRef) bool

	// Tier returns the topmost memory tier where ref is resident:
	// 0 = GPU HBM, 1 = host DRAM, rising through the configured
	// hierarchy. The bottom tier always holds every expert, so Tier
	// never fails. Under the degenerate two-tier configuration the
	// answer is always 0 or 1.
	Tier(ref moe.ExpertRef) int
	// Promote asynchronously stages ref one tier upward (toward the
	// GPU): a DRAM-resident expert gets a PCIe upload, a deeper one a
	// staging copy into the tier above. Returns false when ref is
	// already GPU-resident or a transfer for it is tracked. Unlike
	// Prefetch it does not chain across tiers — policies that want the
	// full route use Prefetch, which stages through every intermediate
	// tier automatically.
	Promote(ref moe.ExpertRef, priority, issueTime float64) bool
	// Demote drops ref's topmost resident copy one tier down at virtual
	// time now: a GPU-resident expert falls back to DRAM, a
	// DRAM-resident one to the tier below (its backing copy; the drop
	// is free — expert weights are immutable). Returns false when ref
	// is resident only in the unbounded bottom tier, or when its GPU
	// copy is pinned by the executing layer (in-use weights are never
	// dropped).
	Demote(ref moe.ExpertRef, now float64) bool
	// Account charges ms to component c of the engine's latency
	// breakdown (Fig. 17). Policies charge their own work here,
	// including asynchronous work that never delays inference; the
	// engine charges inference, on-demand stalls and hook delays
	// itself, into the same ledger.
	Account(c Component, ms float64)
}

// Policy is an expert offloading strategy. Hook return values are
// synchronous CPU-side delays in milliseconds added to the inference clock
// (asynchronous designs return 0 and model their latency through prefetch
// issue times).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Attach binds the policy to an engine runtime before serving.
	Attach(rt Runtime)
	// StartRequest fires when a request is admitted.
	StartRequest(reqID uint64, now float64) float64
	// StartIteration fires before layer 0 of every iteration with one
	// view per request in the batch.
	StartIteration(views []IterView, now float64) float64
	// OnGate fires after layer's gate output and before the layer's
	// experts are resolved and computed.
	OnGate(layer int, views []LayerView, now float64) float64
	// EndIteration fires after the last layer with the request's full
	// iteration record (the paper's Step 5 map update).
	EndIteration(reqID uint64, it *moe.Iteration, now float64) float64
	// EndRequest fires exactly once for every request StartRequest saw:
	// when it completes, or when the engine drops it mid-batch (a
	// cancelled hedge or timeout copy, or a request harvested from a
	// crashed engine).
	EndRequest(reqID uint64, now float64)
	// Scorer returns the cache-eviction scorer the policy pairs with.
	Scorer() cache.Scorer
	// MemoryOverheadBytes reports CPU-side metadata memory (the Expert
	// Map Store for FineMoE, the EAM collection for MoE-Infinity).
	MemoryOverheadBytes() int64
}

// Base provides no-op defaults so policies only implement the hooks they
// need. Embed it by value.
type Base struct {
	RT Runtime
}

// Attach stores the runtime.
func (b *Base) Attach(rt Runtime) { b.RT = rt }

// StartRequest is a no-op.
func (b *Base) StartRequest(uint64, float64) float64 { return 0 }

// StartIteration is a no-op.
func (b *Base) StartIteration([]IterView, float64) float64 { return 0 }

// OnGate is a no-op.
func (b *Base) OnGate(int, []LayerView, float64) float64 { return 0 }

// EndIteration is a no-op.
func (b *Base) EndIteration(uint64, *moe.Iteration, float64) float64 { return 0 }

// EndRequest is a no-op.
func (b *Base) EndRequest(uint64, float64) {}

// Scorer defaults to LRU.
func (b *Base) Scorer() cache.Scorer { return cache.LRU{} }

// MemoryOverheadBytes defaults to zero.
func (b *Base) MemoryOverheadBytes() int64 { return 0 }

// Component is one named latency component of the paper's Fig. 17
// breakdown. Components are dense, so a ledger is an array indexed by
// Component.
type Component uint8

// The Fig. 17 components.
const (
	CompCollect Component = iota
	CompMapMatch
	CompPrefetch
	CompLoad
	CompUpdate
	CompInfer
	CompPredict
)

// componentNames holds each component's report name, the key of its
// entry in serve.Result.Breakdown.
var componentNames = [...]string{
	CompCollect:  "collect_context",
	CompMapMatch: "map_match",
	CompPrefetch: "expert_prefetch",
	CompLoad:     "expert_load",
	CompUpdate:   "map_update",
	CompInfer:    "inference",
	CompPredict:  "predict_sync",
}

// NumComponents is the size of a dense per-component ledger.
const NumComponents = len(componentNames)

// String returns the component's report name.
func (c Component) String() string { return componentNames[c] }

// Package serve implements the MoE serving engine: the prefill/decode
// iteration loop over the simulated cluster, the policy hook protocol,
// offline (fixed-batch) and online (trace-driven continuous batching)
// runners, and the paper's metrics — TTFT, TPOT, expert hit rate, and the
// per-iteration latency breakdown of Fig. 17.
package serve

import (
	"math"

	"finemoe/internal/cache"
	"finemoe/internal/memsim"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/workload"
)

// Options configures one serving run.
type Options struct {
	// Model is the simulated MoE model.
	Model *moe.Model
	// GPU is the device type; NumGPUs the expert-parallel degree
	// (the paper's testbed: 6× RTX 3090).
	GPU     memsim.GPUSpec
	NumGPUs int
	// CacheBytes is the total expert-cache budget across devices
	// (Fig. 12's x-axis). Zero derives a default: the device memory left
	// after dense weights, capped at half the expert weights.
	CacheBytes int64
	// Policy is the offloading policy under test.
	Policy policy.Policy
	// BatchSize is the offline lockstep batch (default 1, Fig. 16b
	// sweeps 1–8).
	BatchSize int
	// MaxBatch bounds online continuous batching (default 8).
	MaxBatch int
	// PreloadAll makes every expert resident at t=0 (No-offload).
	PreloadAll bool
	// Memory configures the tiered host-memory hierarchy below the GPU
	// expert cache. The zero value is the degenerate two-tier
	// configuration (unbounded DRAM), which reproduces pre-tiering
	// results byte-identically; memsim.ThreeTier(dramBytes) bounds DRAM
	// and spills experts to an NVMe backing tier behind a shared
	// staging link.
	Memory memsim.Hierarchy
	// HostScorer ranks bounded host-tier residents for demotion (nil =
	// the policy's own Scorer, so the cache-eviction ablation surface
	// extends to every tier).
	HostScorer cache.Scorer
}

// RequestMetrics records one served request.
type RequestMetrics struct {
	ID        uint64
	ArrivalMS float64
	StartMS   float64
	// FirstTokenMS is the absolute completion time of the prefill
	// iteration.
	FirstTokenMS float64
	EndMS        float64
	// TTFTms is first-token latency including queueing (§2.1).
	TTFTms float64
	// TPOTms is the mean decode time per output token.
	TPOTms float64
	// E2Ems is the end-to-end request latency (Fig. 11).
	E2Ems float64
	// Hits/Misses count expert-cache residency at activation time.
	Hits, Misses int
	OutputTokens int
}

// HitRate returns the request's expert hit rate.
func (r RequestMetrics) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 1
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// Result aggregates a serving run.
type Result struct {
	Policy   string
	Model    string
	Requests []RequestMetrics
	// MeanTTFT/MeanTPOT are the paper's headline offline metrics.
	MeanTTFT, MeanTPOT float64
	// Latency order statistics across requests (ms).
	TTFT, TPOT, E2E metrics.Summary
	// Hits and Misses are the engine-level expert-cache counts: one per
	// unique activated expert per layer per iteration (batch members
	// sharing an expert count it once). Per-request RequestMetrics
	// hits/misses are NOT deduplicated across the batch, so their sums
	// can exceed these totals.
	Hits, Misses int
	// HitRate is Hits / (Hits + Misses) across the run.
	HitRate float64
	// Breakdown maps component -> mean ms per iteration (Fig. 17).
	Breakdown  map[string]float64
	Iterations int
	// GPUMemoryBytes is the serving memory footprint: dense weights plus
	// the expert-cache budget (Fig. 1b's memory axis).
	GPUMemoryBytes int64
	// PolicyOverheadBytes is CPU-side metadata (Expert Map Store / EAM
	// collection).
	PolicyOverheadBytes int64
	CacheStats          cache.Stats
	LinkStats           memsim.LinkStats
	// Tiers reports per-tier residency and transfer statistics, topmost
	// (GPU HBM) first; under the degenerate two-tier configuration the
	// host entry is the unbounded DRAM backing store.
	Tiers []TierStat
	// MemoryPressure is the host DRAM tier's end-of-run thrash level:
	// the decayed fraction of recent expert fetches staged from below
	// DRAM (0 when DRAM is unbounded or ample).
	MemoryPressure float64
	// WallClockMS is the simulated makespan of the run.
	WallClockMS float64
}

// Engine executes serving runs. Construct a fresh Engine (and policy) per
// run; engines are not safe for concurrent use.
//
// Beyond the closed RunOffline/RunOnline loops, the engine exposes a
// steppable event-driven surface — Submit, NextEventTime, Step, Drain,
// Finalize — so an external orchestrator (e.g. internal/cluster) can
// interleave many engines under one shared virtual clock. The step surface
// uses online semantics: continuous batching up to MaxBatch with
// prefill-first admission at iteration boundaries.
type Engine struct {
	opts    Options
	cfg     moe.Config
	model   *moe.Model
	cluster *memsim.Cluster
	caches  *cache.Set
	pol     policy.Policy

	// Tiered host memory: host[0] is DRAM, deeper entries slower tiers;
	// the last is always the unbounded backing store. pendingUp chains
	// asynchronous prefetches across tiers: an expert whose staging copy
	// is in flight maps to the priority of the next hop to issue when it
	// lands. tierDrops counts per-host-tier capacity evictions.
	host      []*cache.HostTier
	pendingUp map[moe.ExpertRef]float64
	tierDrops []int
	// memSpill is the exponentially decayed fraction of recent expert
	// fetches that had to be staged from below DRAM — the thrash signal
	// MemoryPressure reports. Occupancy would be useless here: a
	// warm-filled bounded tier sits at 100% occupancy for the whole run
	// regardless of whether the working set actually fits.
	memSpill float64

	// comp is the run's latency ledger: the engine's own charges and the
	// policy's (through Account) accumulate here per component, in event
	// order. compTouched tracks which components were ever charged, so
	// Finalize reports exactly those keys, even at 0 ms.
	comp        [policy.NumComponents]float64
	compTouched [policy.NumComponents]bool
	iterations  int
	syncLoadMS  float64 // cumulative SyncLoad wait, for attribution
	hits        int
	misses      int

	// Steppable run state: the arrival-ordered queue, the running batch,
	// and the metrics of completed requests.
	pending   []pendingReq
	running   []*runReq
	completed []RequestMetrics
	// tracer simulates gate traces for requests submitted without one and
	// recycles engine-owned traces (its own and handed-off ones) into the
	// model's free list when their requests complete. Caller-owned traces
	// (SubmitTraced, RunOffline/RunOnline) are never recycled;
	// runReq.ownedTrace tells the two apart. It is held by value, so
	// building an engine allocates nothing for it. reqFree recycles the
	// per-request bookkeeping records.
	tracer  moe.Tracer
	reqFree []*runReq
	// ahead, when set, simulates the gate traces of the next admission
	// set on a helper goroutine (SetTraceQueue).
	ahead *moe.TraceQueue
	// batchScratch is step's reusable copy of running (finishIteration
	// compacts e.running while the batch is iterated, so the iteration
	// must walk a stable copy — but not a fresh one per event).
	batchScratch []*runReq
	// Per-iteration scratch reused across runIteration calls: the policy
	// view buffers, the per-layer residency set, and the per-device
	// expert-compute accumulator. Valid only within one call.
	iterScratch  []policy.IterView
	layerScratch []policy.LayerView
	admitScratch []*runReq
	// residScratch[j] is expert j's residency at the current layer; the
	// dense per-expert layout replaces a map keyed by ExpertRef (every
	// ref probed in one layer shares that layer), trading a J-entry clear
	// per layer for zero hashing on the decode path.
	residScratch []bool
	gpuScratch   []float64
	// unionActive's reusable buffers: the deduplicated union, the flat
	// per-request activation backing store with its offset table, the
	// per-request slice windows, and the dense per-expert dedup set.
	unionScratch  []moe.ExpertRef
	activeScratch []moe.ExpertRef
	activeOffs    []int
	perReqScratch [][]moe.ExpertRef
	seenScratch   []bool
	now           float64
	// offline switches admission to RunOffline's lockstep fixed-batch
	// semantics: a new batch is admitted only when the previous one fully
	// drains, arrival times are ignored, and submission order is kept.
	offline bool
	// crashed halts the engine (fault injection): no further events fire
	// and queued/running requests sit stranded until CrashHarvest.
	crashed bool
}

// New builds an engine for one run.
func New(opts Options) *Engine {
	if opts.Model == nil {
		panic("serve: nil model")
	}
	if opts.Policy == nil {
		panic("serve: nil policy")
	}
	if opts.NumGPUs <= 0 {
		opts.NumGPUs = 1
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 8
	}
	cfg := opts.Model.Cfg
	if opts.CacheBytes <= 0 {
		free := opts.GPU.MemBytes*int64(opts.NumGPUs) - cfg.DenseBytes()*int64(opts.NumGPUs)
		half := cfg.TotalExpertBytes() / 2
		opts.CacheBytes = free
		if opts.CacheBytes > half {
			opts.CacheBytes = half
		}
		if opts.CacheBytes < cfg.ExpertBytes()*int64(cfg.Layers) {
			opts.CacheBytes = cfg.ExpertBytes() * int64(cfg.Layers)
		}
	}
	hostScorer := opts.HostScorer
	if hostScorer == nil {
		hostScorer = opts.Policy.Scorer()
	}
	cl := memsim.NewTieredCluster(opts.GPU, opts.NumGPUs, cfg, opts.Memory)
	e := &Engine{
		opts:      opts,
		cfg:       cfg,
		model:     opts.Model,
		cluster:   cl,
		caches:    cache.NewSet(cfg, opts.NumGPUs, opts.CacheBytes, opts.Policy.Scorer()),
		pol:       opts.Policy,
		host:      buildHostTiers(cl.Hierarchy(), cfg, hostScorer),
		pendingUp: map[moe.ExpertRef]float64{},
		tracer:    *opts.Model.NewTracer(),
	}
	e.tierDrops = make([]int, len(e.host))
	warmHostTiers(e.host, cfg)
	e.pol.Attach(e)
	if opts.PreloadAll {
		for l := 0; l < cfg.Layers; l++ {
			for j := 0; j < cfg.RoutedExperts; j++ {
				e.gpuInsert(moe.ExpertRef{Layer: l, Expert: j}, 0)
			}
		}
	}
	return e
}

// --- policy.Runtime implementation -----------------------------------------

// Config implements policy.Runtime.
func (e *Engine) Config() moe.Config { return e.cfg }

// Resident implements policy.Runtime.
func (e *Engine) Resident(ref moe.ExpertRef) bool { return e.caches.Contains(ref) }

// Tracked implements policy.Runtime: a transfer for ref is queued or in
// flight on the PCIe links or any staging link of the hierarchy.
func (e *Engine) Tracked(ref moe.ExpertRef) bool {
	return e.cluster.Tracked(ref) || e.cluster.StageTracked(ref)
}

// Prefetch implements policy.Runtime: route the expert asynchronously up
// through the hierarchy. A DRAM-resident expert goes straight onto its
// GPU's PCIe link (the seed's whole path); a deeper one starts a staging
// chain whose completions issue the next hop at the original priority.
func (e *Engine) Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool {
	if e.caches.Contains(ref) {
		return false
	}
	level := e.hostLevel(ref)
	if level == 0 {
		ok := e.cluster.Prefetch(ref, priority, issueTime)
		if ok {
			e.noteMemFetch(level)
			e.host[0].Touch(ref, issueTime)
			e.host[0].Pin(ref)
		}
		return ok
	}
	if e.cluster.Tracked(ref) || e.cluster.StageTracked(ref) {
		return false
	}
	if _, dup := e.pendingUp[ref]; dup {
		return false
	}
	if !e.cluster.StagePrefetch(level-1, ref, priority, issueTime) {
		return false
	}
	e.noteMemFetch(level)
	e.pendingUp[ref] = priority
	return true
}

// SyncLoad implements policy.Runtime: blocking loads parallelized across
// the per-GPU links (each expert loads on its owner; staging hops for
// below-DRAM experts serialize on the shared staging links).
func (e *Engine) SyncLoad(refs []moe.ExpertRef, now float64) float64 {
	end := now
	loaded := false
	for _, r := range refs {
		if e.caches.Contains(r) {
			continue
		}
		loaded = true
		if t := e.fetchOnDemand(r, now); t > end {
			end = t
		}
	}
	if !loaded {
		return now
	}
	e.drain(end)
	e.syncLoadMS += end - now
	return end
}

// drain advances every link to now: completed staging copies land in
// their host tier and chain the next prefetch hop; completed PCIe
// uploads unpin their DRAM source and become GPU-resident (demoting the
// cache's evictions down the hierarchy).
func (e *Engine) drain(now float64) {
	if e.cluster.Hierarchy().Depth() > 1 {
		for _, st := range e.cluster.AdvanceStagingTo(now) {
			e.hostInsert(st.Level, st.Ref, st.End)
			pri, ok := e.pendingUp[st.Ref]
			if !ok {
				continue
			}
			if st.Level == 0 {
				delete(e.pendingUp, st.Ref)
				if e.cluster.Prefetch(st.Ref, pri, st.End) {
					e.host[0].Touch(st.Ref, st.End)
					e.host[0].Pin(st.Ref)
				}
			} else {
				e.cluster.StagePrefetch(st.Level-1, st.Ref, pri, st.End)
			}
		}
	}
	for _, t := range e.cluster.AdvanceTo(now) {
		e.host[0].Unpin(t.Ref)
		e.gpuInsert(t.Ref, t.End)
	}
}

// Account implements policy.Runtime: it charges ms to component c of
// the run's one latency ledger.
//
//finemoe:hotpath
func (e *Engine) Account(c policy.Component, ms float64) {
	e.comp[c] += ms
	e.compTouched[c] = true
}

// --- iteration execution ----------------------------------------------------

// pendingReq is a queued request with its gate trace: nil iters means
// "simulate at admission"; owned marks a handed-off trace the engine
// recycles when the request completes. job is the trace asked of the
// engine's TraceQueue while the request is in the next admission set.
type pendingReq struct {
	req   workload.Request
	iters []*moe.Iteration
	owned bool
	job   *moe.TraceJob
}

// runReq is a request in flight.
type runReq struct {
	req     workload.Request
	iters   []*moe.Iteration
	next    int // next iteration index
	metrics RequestMetrics
	// ownedTrace marks iters as engine-owned (simulated by the tracer or
	// handed off), so the iterations are recycled when the request
	// completes. Caller-owned traces must survive the request.
	ownedTrace bool
}

func (r *runReq) done() bool { return r.next >= len(r.iters) }

// runIteration executes one lockstep iteration for the batch (all members
// at the same phase index semantics are not required; each request runs its
// own next iteration). Returns the completion time.
func (e *Engine) runIteration(batch []*runReq, now float64) float64 {
	e.iterations++
	if cap(e.iterScratch) < len(batch) {
		e.iterScratch = make([]policy.IterView, len(batch))
	}
	iterViews := e.iterScratch[:len(batch)]
	totalTokens := 0
	for i, r := range batch {
		it := r.iters[r.next]
		iterViews[i] = policy.IterView{
			ReqID:     r.req.ID,
			Iter:      it.Index,
			Semantic:  it.Semantic,
			IsPrefill: it.Index == 0,
			Tokens:    it.Tokens,
		}
		totalTokens += it.Tokens
	}
	mark := e.syncLoadMS
	now = e.applyHookDelay(now, e.pol.StartIteration(iterViews, now), mark)

	if cap(e.layerScratch) < len(batch) {
		e.layerScratch = make([]policy.LayerView, len(batch))
	}
	layerViews := e.layerScratch[:len(batch)]
	for l := 0; l < e.cfg.Layers; l++ {
		// Dense (attention + norms + shared experts) compute.
		attn := e.attnTime(totalTokens)
		now += attn
		e.Account(policy.CompInfer, attn)
		e.drain(now)

		// Gate outputs observed; policy reacts.
		for i, r := range batch {
			it := r.iters[r.next]
			layerViews[i] = policy.LayerView{
				ReqID:  r.req.ID,
				Iter:   it.Index,
				Probs:  it.Probs[l],
				Hidden: it.Hidden[l],
			}
		}
		mark = e.syncLoadMS
		now = e.applyHookDelay(now, e.pol.OnGate(l, layerViews, now), mark)
		e.drain(now)

		// Resolve the batch's activated experts: residency snapshot
		// determines hits (§3.2 Step 4), then misses load on demand.
		// Every ref here names layer l, so residency is indexed
		// densely by expert (a map keyed by ExpertRef paid a hash
		// per probe on the decode path).
		active, perReq := e.unionActive(batch, l)
		if cap(e.residScratch) < e.cfg.RoutedExperts {
			e.residScratch = make([]bool, e.cfg.RoutedExperts)
		}
		resident := e.residScratch[:e.cfg.RoutedExperts]
		for _, ref := range active {
			resident[ref.Expert] = e.caches.Contains(ref)
		}
		for i, r := range batch {
			for _, ref := range perReq[i] {
				if resident[ref.Expert] {
					r.metrics.Hits++
				} else {
					r.metrics.Misses++
				}
			}
		}
		for _, ref := range active {
			if resident[ref.Expert] {
				e.hits++
				e.caches.Lookup(ref, now)
				e.caches.Pin(ref)
				continue
			}
			e.misses++
			avail := e.fetchOnDemand(ref, now)
			stall := avail - now
			now = avail
			e.Account(policy.CompLoad, stall)
			e.drain(now)
			e.caches.Lookup(ref, now)
			e.caches.Pin(ref)
		}

		// Expert FFN compute.
		ec := e.expertTime(active, totalTokens)
		now += ec
		e.Account(policy.CompInfer, ec)
		e.caches.UnpinAll()
	}

	for _, r := range batch {
		it := r.iters[r.next]
		mark = e.syncLoadMS
		now = e.applyHookDelay(now, e.pol.EndIteration(r.req.ID, it, now), mark)
	}
	return now
}

// applyHookDelay folds one policy hook's synchronous delay into the clock,
// attributing the portion spent inside SyncLoad to expert loading and the
// remainder to prediction compute. markSyncLoad is e.syncLoadMS sampled
// immediately before the hook ran; call sites invoke the policy method
// directly (no closure) so the dispatch stays allocation-free.
//
//finemoe:hotpath
func (e *Engine) applyHookDelay(now, delay, markSyncLoad float64) float64 {
	if delay < 0 {
		// Constant message: a fmt.Sprintf here would put an allocating
		// call on the zero-alloc decode path for the panic branch alone.
		panic("serve: negative policy delay")
	}
	loadPart := e.syncLoadMS - markSyncLoad
	predictPart := delay - loadPart
	if predictPart < 0 {
		predictPart = 0
	}
	e.Account(policy.CompLoad, loadPart)
	e.Account(policy.CompPredict, predictPart)
	return now + delay
}

// unionActive returns the deduplicated activated experts at layer l across
// the batch (first-activation order) and each request's own activation set.
// Both returned slices alias engine scratch valid until the next call: the
// per-request sets are windows into one flat buffer (sliced only after the
// buffer is fully built, so growth cannot invalidate them).
//
//finemoe:hotpath
func (e *Engine) unionActive(batch []*runReq, l int) ([]moe.ExpertRef, [][]moe.ExpertRef) {
	if cap(e.seenScratch) < e.cfg.RoutedExperts {
		e.seenScratch = make([]bool, e.cfg.RoutedExperts)
	}
	seen := e.seenScratch[:e.cfg.RoutedExperts]
	for i := range seen {
		seen[i] = false
	}
	union := e.unionScratch[:0]
	flat := e.activeScratch[:0]
	offs := e.activeOffs[:0]
	offs = append(offs, 0)
	for _, r := range batch {
		it := r.iters[r.next]
		for _, j := range it.Active[l] {
			ref := moe.ExpertRef{Layer: l, Expert: j}
			flat = append(flat, ref)
			if !seen[j] {
				seen[j] = true
				union = append(union, ref)
			}
		}
		offs = append(offs, len(flat))
	}
	if cap(e.perReqScratch) < len(batch) {
		e.perReqScratch = make([][]moe.ExpertRef, len(batch))
	}
	perReq := e.perReqScratch[:len(batch)]
	for i := range perReq {
		perReq[i] = flat[offs[i]:offs[i+1]]
	}
	e.unionScratch, e.activeScratch, e.activeOffs = union, flat, offs
	return union, perReq
}

// attnTime models the dense portion of one layer: framework overhead plus
// memory-bound weight reads plus FLOPs-bound token compute.
func (e *Engine) attnTime(tokens int) float64 {
	denseLayerBytes := e.cfg.DenseBytes() / int64(e.cfg.Layers)
	read := e.opts.GPU.ReadMS(denseLayerBytes)
	flops := e.opts.GPU.FlopsMS(2 * float64(e.cfg.DenseParams/int64(e.cfg.Layers)) * float64(tokens))
	return e.opts.GPU.PerLayerOverheadMS + math.Max(read, flops)
}

// expertTime models the expert FFN compute of one layer under expert
// parallelism: each device reads/computes its share of activated experts;
// the layer waits on the slowest device.
func (e *Engine) expertTime(active []moe.ExpertRef, tokens int) float64 {
	if len(active) == 0 {
		return 0
	}
	if cap(e.gpuScratch) < e.opts.NumGPUs {
		e.gpuScratch = make([]float64, e.opts.NumGPUs)
	}
	perGPU := e.gpuScratch[:e.opts.NumGPUs]
	for i := range perGPU {
		perGPU[i] = 0
	}
	tokensPerExpert := float64(tokens) * float64(e.cfg.TopK) / float64(len(active))
	for _, ref := range active {
		g := e.cluster.GPUFor(ref)
		read := e.opts.GPU.ReadMS(e.cfg.ExpertBytes())
		flops := e.opts.GPU.FlopsMS(2 * float64(e.cfg.ExpertParams()) * tokensPerExpert)
		perGPU[g] += math.Max(read, flops)
	}
	maxT := 0.0
	for _, t := range perGPU {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

// finalize computes aggregate metrics.
func (e *Engine) finalize(reqs []RequestMetrics, wallClock float64) *Result {
	res := &Result{
		Policy:              e.pol.Name(),
		Model:               e.cfg.Name,
		Requests:            reqs,
		Breakdown:           map[string]float64{},
		Iterations:          e.iterations,
		GPUMemoryBytes:      e.cfg.DenseBytes()*int64(e.opts.NumGPUs) + e.opts.CacheBytes,
		PolicyOverheadBytes: e.pol.MemoryOverheadBytes(),
		CacheStats:          e.caches.Stats(),
		LinkStats:           e.cluster.Stats(),
		Tiers:               e.TierStats(),
		MemoryPressure:      e.MemoryPressure(),
		WallClockMS:         wallClock,
	}
	var ttfts, tpots, e2es []float64
	for _, r := range reqs {
		ttfts = append(ttfts, r.TTFTms)
		e2es = append(e2es, r.E2Ems)
		if r.OutputTokens > 1 {
			tpots = append(tpots, r.TPOTms)
		}
	}
	res.TTFT = metrics.Summarize(ttfts)
	res.TPOT = metrics.Summarize(tpots)
	res.E2E = metrics.Summarize(e2es)
	res.MeanTTFT = res.TTFT.Mean
	res.MeanTPOT = res.TPOT.Mean
	res.Hits = e.hits
	res.Misses = e.misses
	if e.hits+e.misses > 0 {
		res.HitRate = float64(e.hits) / float64(e.hits+e.misses)
	} else {
		res.HitRate = 1
	}
	for c, v := range e.comp {
		if e.compTouched[c] {
			res.Breakdown[policy.Component(c).String()] = v
		}
	}
	if e.iterations > 0 {
		for k := range res.Breakdown {
			res.Breakdown[k] /= float64(e.iterations)
		}
	}
	return res
}

// --- steppable surface ------------------------------------------------------

// Submit enqueues a request for serving. In the default (online) mode the
// queue is kept sorted by arrival time with stable insertion, so requests
// may be submitted out of arrival order. The gate trace is simulated lazily
// at admission time, or ahead of it on a trace queue (SetTraceQueue).
func (e *Engine) Submit(req workload.Request) { e.SubmitTraced(req, nil) }

// SubmitTraced enqueues a request with a pre-computed gate trace (nil
// simulates at admission), allowing simulation work to be shared across
// policy runs. The trace stays the caller's: the engine never recycles
// it.
func (e *Engine) SubmitTraced(req workload.Request, iters []*moe.Iteration) {
	e.enqueue(pendingReq{req: req, iters: iters})
}

// SubmitHandOff enqueues a request with a gate trace whose ownership
// passes to the engine: iters must come from a Tracer of the engine's
// model (Model), and the engine recycles them into the model's free list
// when the request completes.
func (e *Engine) SubmitHandOff(req workload.Request, iters []*moe.Iteration) {
	e.enqueue(pendingReq{req: req, iters: iters, owned: iters != nil})
}

// enqueue inserts p into the pending queue.
func (e *Engine) enqueue(p pendingReq) {
	i := len(e.pending)
	if !e.offline {
		// Stable insertion by arrival time: equal arrivals keep
		// submission order, matching the FIFO replay of RunOnline.
		for i > 0 && e.pending[i-1].req.ArrivalMS > p.req.ArrivalMS {
			i--
		}
	}
	e.pending = append(e.pending, pendingReq{})
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = p
	if e.ahead != nil && !e.crashed {
		e.askAhead(i)
	}
}

// SetTraceQueue lets the engine ask q for the gate traces of its next
// admission set: the first MaxBatch − InFlight queued requests. It asks
// on every submit and after every step, so a trace is usually ready by
// admission. q must queue traces of the engine's model for a helper
// goroutine that serves it (internal/cluster's gate-trace pipeline).
func (e *Engine) SetTraceQueue(q *moe.TraceQueue) { e.ahead = q }

// askAhead adds a job for every request of the next admission set that
// has neither a trace nor a job. A request that an insert at index at
// pushed out of the set gives its job back, so only the set holds traces
// and a backlog holds none.
func (e *Engine) askAhead(at int) {
	n := min(e.opts.MaxBatch-len(e.running), len(e.pending))
	if at < n && n < len(e.pending) {
		if p := &e.pending[n]; p.job != nil {
			p.job.Release()
			p.job = nil
		}
	}
	for i := range e.pending[:n] {
		if p := &e.pending[i]; p.iters == nil && p.job == nil {
			p.job = e.ahead.Add(p.req.PromptSpec)
		}
	}
}

// removePending removes and returns queue entry i by copying the tail
// down rather than reslicing, so the backing array keeps its capacity for
// the next enqueue; the vacated slot is zeroed so it pins no embedding or
// trace.
func (e *Engine) removePending(i int) pendingReq {
	p := e.pending[i]
	n := len(e.pending) - 1
	copy(e.pending[i:], e.pending[i+1:])
	e.pending[n] = pendingReq{}
	e.pending = e.pending[:n]
	return p
}

// Model returns the simulated model the engine serves.
func (e *Engine) Model() *moe.Model { return e.model }

// Now returns the engine's virtual clock (ms).
func (e *Engine) Now() float64 { return e.now }

// AdvanceClock moves the engine's virtual clock forward to now (a no-op
// when now is not ahead of it), completing any in-flight transfers due by
// then. Orchestrators use it to align a quiescent instance with a
// fleet-level clock before submitting work; call it only between
// iterations (the engine must not be mid-batch in a Step).
func (e *Engine) AdvanceClock(now float64) {
	if now <= e.now {
		return
	}
	e.drain(now)
	e.now = now
}

// QueueDepth reports submitted requests not yet admitted to the batch.
func (e *Engine) QueueDepth() int { return len(e.pending) }

// InFlight reports requests admitted and not yet completed.
func (e *Engine) InFlight() int { return len(e.running) }

// Completed returns the metrics of every request served so far, in
// completion order. The returned slice is shared; callers must not mutate.
func (e *Engine) Completed() []RequestMetrics { return e.completed }

// TakeCompleted returns the requests completed since the previous call and
// removes them from the engine's history, bounding memory on long-running
// deployments. A later Finalize aggregates only what remains, so callers
// must pick one consumption style: TakeCompleted (serving) or Finalize
// (batch runs).
func (e *Engine) TakeCompleted() []RequestMetrics {
	out := e.completed
	e.completed = nil
	return out
}

// NextEventTime returns the virtual time of the engine's next actionable
// event: the current clock when a batch is in flight (an iteration can
// start immediately), the earliest pending arrival when idle, and +Inf when
// fully drained.
func (e *Engine) NextEventTime() float64 {
	if e.crashed {
		return math.Inf(1)
	}
	if len(e.running) > 0 {
		return e.now
	}
	if len(e.pending) > 0 {
		if t := e.pending[0].req.ArrivalMS; !e.offline && t > e.now {
			return t
		}
		return e.now
	}
	return math.Inf(1)
}

// Step processes the engine's next event if it occurs at or before until:
// admit arrivals due at the (possibly advanced) clock, then run one
// iteration. Iterations are atomic in virtual time, so the clock may
// overshoot until; Step guarantees only that no new event *starts* after
// until. Reports whether any work was done.
//
//finemoe:hotpath
func (e *Engine) Step(until float64) bool {
	if e.NextEventTime() > until {
		return false
	}
	return e.step()
}

// Drain runs every submitted request to completion and returns the final
// clock.
func (e *Engine) Drain() float64 {
	for e.step() {
	}
	return e.now
}

// Finalize aggregates everything served so far into a Result.
func (e *Engine) Finalize() *Result {
	return e.finalize(e.completed, e.now)
}

// --- fault-injection surface -------------------------------------------------

// Crash halts the engine at its current clock: NextEventTime becomes +Inf
// and Step/Drain no-op, leaving queued and in-flight requests stranded
// until CrashHarvest collects them. Completed metrics are preserved.
func (e *Engine) Crash() { e.crashed = true }

// CrashHarvest removes and returns every stranded request — in-flight
// requests in admission order, then queued requests in arrival order — so
// the orchestrator can re-queue or account them as lost. In-flight
// requests are retired as Cancel retires them. Idempotent: a second call
// returns nil.
func (e *Engine) CrashHarvest() []workload.Request {
	n := len(e.running) + len(e.pending)
	if n == 0 {
		return nil
	}
	out := make([]workload.Request, 0, n)
	for _, r := range e.running {
		out = append(out, r.req)
		e.retire(r, e.now)
	}
	for _, p := range e.pending {
		out = append(out, p.req)
		e.dropPending(p)
	}
	e.running = e.running[:0]
	clear(e.pending)
	e.pending = e.pending[:0]
	return out
}

// Cancel removes the request with the given ID from the engine — whether
// still queued or mid-batch — without recording completion metrics.
// A mid-batch request ends at the engine's clock (its policy's
// EndRequest fires then), and engine-owned gate traces are recycled
// either way. Orchestrators use it to retire the losing copies of hedged
// or retried requests. Reports whether the request was found; a request
// that already completed is not cancellable. Works on crashed engines.
func (e *Engine) Cancel(id uint64) bool {
	for i, r := range e.running {
		if r.req.ID == id {
			e.running = append(e.running[:i], e.running[i+1:]...)
			e.retire(r, e.now)
			return true
		}
	}
	for i, p := range e.pending {
		if p.req.ID == id {
			e.dropPending(e.removePending(i))
			return true
		}
	}
	return false
}

// retire ends an admitted request that has left e.running: the policy's
// EndRequest fires at now, an engine-owned gate trace goes back to the
// model's free list (nothing downstream retains it — see
// Tracer.Recycle), and the runReq record to the engine's.
// Caller-supplied traces stay untouched.
func (e *Engine) retire(r *runReq, now float64) {
	e.pol.EndRequest(r.req.ID, now)
	if r.ownedTrace {
		e.tracer.Recycle(r.iters)
	}
	*r = runReq{}
	e.reqFree = append(e.reqFree, r)
}

// dropPending recycles the handed-off gate trace of a request that
// leaves the queue without being admitted, or releases its job.
func (e *Engine) dropPending(p pendingReq) {
	if p.job != nil {
		p.job.Release()
	}
	if p.owned {
		e.tracer.Recycle(p.iters)
	}
}

// ScalePCIeLinks scales every per-GPU host link's bandwidth (brownout
// injection; 1 restores nominal).
func (e *Engine) ScalePCIeLinks(factor float64) { e.cluster.ScalePCIe(factor) }

// ScaleStagingLinks scales every staging link's bandwidth (no-op on
// two-tier hierarchies).
func (e *Engine) ScaleStagingLinks(factor float64) { e.cluster.ScaleStaging(factor) }

// StallPCIeLinks freezes every per-GPU host link until the given time.
func (e *Engine) StallPCIeLinks(untilMS float64) { e.cluster.StallPCIe(untilMS) }

// StallStagingLinks freezes every staging link until the given time.
func (e *Engine) StallStagingLinks(untilMS float64) { e.cluster.StallStaging(untilMS) }

// admitOne moves the head of the pending queue into the running batch,
// simulating its gate trace if none was supplied and its job, if any,
// yields none. arrival records the request's metric arrival time (its
// trace arrival online, the current clock offline).
//
//finemoe:allocok warms the runReq and gate-trace free lists; steady-state admissions recycle completed requests' records
func (e *Engine) admitOne(arrival float64) *runReq {
	p := e.removePending(0)
	q, iters, owned := p.req, p.iters, p.owned
	if p.job != nil {
		iters, owned = p.job.Take(), true
	}
	if iters == nil {
		iters = e.tracer.Trace(q.PromptSpec, nil)
		owned = true
	}
	var r *runReq
	if n := len(e.reqFree); n > 0 {
		r = e.reqFree[n-1]
		e.reqFree[n-1] = nil
		e.reqFree = e.reqFree[:n-1]
		*r = runReq{req: q, iters: iters, ownedTrace: owned}
	} else {
		r = &runReq{req: q, iters: iters, ownedTrace: owned}
	}
	r.metrics = RequestMetrics{ID: q.ID, ArrivalMS: arrival, StartMS: e.now, OutputTokens: q.OutputTokens}
	mark := e.syncLoadMS
	e.now = e.applyHookDelay(e.now, e.pol.StartRequest(q.ID, e.now), mark)
	e.running = append(e.running, r)
	return r
}

// admit pulls every due arrival into the batch up to MaxBatch (online
// continuous-batching admission).
// The returned batch aliases a scratch buffer valid until the next admit.
func (e *Engine) admit() []*runReq {
	fresh := e.admitScratch[:0]
	for len(e.pending) > 0 && len(e.running) < e.opts.MaxBatch && e.pending[0].req.ArrivalMS <= e.now {
		fresh = append(fresh, e.admitOne(e.pending[0].req.ArrivalMS))
	}
	e.admitScratch = fresh
	return fresh
}

// runBatch executes one iteration for the batch and advances the clock.
// Completions may have opened the next admission set, so it asks ahead
// for its traces.
func (e *Engine) runBatch(batch []*runReq) {
	end := e.runIteration(batch, e.now)
	e.finishIteration(batch, end)
	e.now = end
	if e.ahead != nil {
		e.askAhead(len(e.pending))
	}
}

// step executes one scheduling event: advance the clock to the next arrival
// if idle, admit, and run one iteration. Returns false when drained.
func (e *Engine) step() bool {
	if e.crashed || (len(e.pending) == 0 && len(e.running) == 0) {
		return false
	}
	if e.offline {
		// Lockstep fixed batches: admit BatchSize requests only once the
		// batch fully drains; arrivals are the admission clock.
		if len(e.running) == 0 {
			n := min(e.opts.BatchSize, len(e.pending))
			for i := 0; i < n; i++ {
				e.admitOne(e.now)
			}
		}
		e.batchScratch = append(e.batchScratch[:0], e.running...)
		e.runBatch(e.batchScratch)
		return true
	}
	if len(e.running) == 0 && e.pending[0].req.ArrivalMS > e.now {
		e.now = e.pending[0].req.ArrivalMS
	}
	if fresh := e.admit(); len(fresh) > 0 {
		// Prefill newly admitted requests together.
		e.runBatch(fresh)
		return true
	}
	if len(e.running) == 0 {
		// Unreachable while New defaults MaxBatch >= 1 (the clock just
		// advanced to the head arrival, so admit took at least one);
		// returning false keeps Drain from spinning if that ever changes.
		return false
	}
	e.batchScratch = append(e.batchScratch[:0], e.running...)
	e.runBatch(e.batchScratch)
	return true
}

// finishIteration advances each batch member past its completed iteration,
// recording first-token and completion metrics and retiring finished
// requests from the running batch.
func (e *Engine) finishIteration(batch []*runReq, end float64) {
	for _, r := range batch {
		it := r.iters[r.next]
		if it.Index == 0 {
			r.metrics.FirstTokenMS = end
			r.metrics.TTFTms = end - r.metrics.ArrivalMS
		}
		r.next++
		if r.done() {
			r.metrics.EndMS = end
			r.metrics.E2Ems = end - r.metrics.ArrivalMS
			if r.req.OutputTokens > 1 {
				r.metrics.TPOTms = (end - r.metrics.FirstTokenMS) / float64(r.req.OutputTokens-1)
			}
			e.completed = append(e.completed, r.metrics)
			for i, rr := range e.running {
				if rr == r {
					e.running = append(e.running[:i], e.running[i+1:]...)
					break
				}
			}
			e.retire(r, end)
		}
	}
}

// --- closed run loops (thin wrappers over the step surface) -----------------

// RunOffline serves requests in fixed-size lockstep batches (§6.2's setup:
// sequential prompts, batch size 1 unless Fig. 16b sweeps it). traces may
// pre-supply gate traces keyed by request ID to share simulation work
// across policy runs; nil simulates on the fly.
func (e *Engine) RunOffline(reqs []workload.Request, traces map[uint64][]*moe.Iteration) *Result {
	e.offline = true
	for _, q := range reqs {
		e.SubmitTraced(q, traces[q.ID])
	}
	e.Drain()
	return e.Finalize()
}

// RunOnline replays an arrival trace with iteration-granularity continuous
// batching (§6.3): requests queue on arrival, join the running batch up to
// MaxBatch at iteration boundaries (prefill first), and leave on
// completion. The Expert Map Store / EAM collection start however the
// caller built them — empty for the paper's online experiment.
func (e *Engine) RunOnline(trace []workload.Request, traces map[uint64][]*moe.Iteration) *Result {
	for _, q := range trace {
		e.SubmitTraced(q, traces[q.ID])
	}
	e.Drain()
	return e.Finalize()
}

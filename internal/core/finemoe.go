package core

import (
	"finemoe/internal/cache"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/tensor"
)

// Options configures the FineMoE policy. The zero value plus a store is a
// valid full-featured configuration: semantic and trajectory search with
// the δ-driven selection, and a store that every completed iteration
// updates. The Fig. 14a ablations of semantic guidance and δ are measured
// through PredictIteration's own switches, not through the policy.
type Options struct {
	// PrefetchDistance d (§4.2); 0 uses the model's profiled optimum.
	PrefetchDistance int
	// SearchNProbe opts into approximate semantic search: the clustered
	// index probes only the n most query-similar centroid buckets per
	// search (0 = probe all, exact mode — byte-identical to the seed's
	// brute force). The searchfig experiment quantifies the hit-rate loss
	// vs. search speedup across nprobe.
	SearchNProbe int
	// SynchronousSearch blocks inference on map search instead of
	// overlapping it — the sync-vs-async design ablation. FineMoE proper
	// keeps this false (§4.3).
	SynchronousSearch bool
	// EvictionScorer overrides FineMoE's 1/(p·freq) cache scorer (the
	// Fig. 14b ablation swaps in LRU and LFU).
	EvictionScorer cache.Scorer
}

// semanticPrefilter bounds the trajectory search's candidates to the
// maps most similar to the request's semantic embedding.
const semanticPrefilter = 128

// prefillMassFloor is the minimum cumulative probability the prefill
// selection must cover. Prefill activates the per-layer union of all
// prompt tokens' experts, and the stored prefill maps' token-mean
// distributions spread across that union, so the selection threshold is
// floored instead of trusting δ alone.
const prefillMassFloor = 0.96

// FineMoE is the paper's policy: asynchronous expert-map search guides
// prefetching (semantic for layers [1,d], trajectory for [d+1,L]), the
// dynamic threshold δ sizes each layer's prefetch set, priorities order
// transfers and evictions, and completed iterations update the store.
type FineMoE struct {
	policy.Base
	store    *Store
	searcher *Searcher
	opts     Options
	cfg      moe.Config
	d        int

	// All mutable policy state below is guarded by the engine's
	// single-threaded hook discipline, not a lock: an Engine steps its
	// policy from one goroutine at a time (httpserve serializes each
	// instance behind its own mutex; the cluster steps every engine on
	// its one event-loop goroutine), and the cache calls Score back on
	// the same hook path. A FineMoE instance is never shared across
	// engines.
	//
	// The same discipline keeps searched maps valid. The semantic match
	// and the cursor's candidates are read only from StartIteration to the
	// iteration's last OnGate, and the store is updated only in
	// EndIteration, which may recycle any map the store evicts (see
	// Store); the next StartIteration replaces both before they are read
	// again.
	//
	// reqs tracks per-request iteration state (trajectory cursors).
	reqs map[uint64]*reqState
	// stFree recycles reqState records: StartIteration builds one per
	// batch member per iteration, so without reuse the policy would
	// allocate on every decode step.
	stFree []*reqState
	// predProb is the eviction signal: the probability the most recent
	// searched maps assigned to each expert (§4.5 eviction priority),
	// indexed densely by Config.RefID. A missing map entry read as 0;
	// the dense slot's zero value preserves that exactly.
	predProb []float64
	// curLayer tracks the inference pipeline's layer phase so eviction
	// can respect the layer-sequential access pattern §4.5 calls out:
	// experts of just-computed layers are farthest from their next use.
	curLayer int
	// Per-call selection scratch: the widened layer distribution, the
	// TopKInto order, and the selected set.
	probsBuf []float64
	orderBuf []int
	selBuf   []int
}

type reqState struct {
	cursor    *Cursor
	sem       SearchResult
	semOK     bool
	isPrefill bool
}

var _ policy.Policy = (*FineMoE)(nil)
var _ cache.Scorer = (*FineMoE)(nil)

// NewFineMoE builds the policy around an Expert Map Store (pre-populated
// for offline serving, empty for online serving).
func NewFineMoE(store *Store, opts Options) *FineMoE {
	cfg := store.Config()
	d := opts.PrefetchDistance
	if d <= 0 {
		d = cfg.OptimalPrefetchDistance
	}
	if d <= 0 {
		d = 1
	}
	searcher := NewSearcher(store, semanticPrefilter)
	searcher.SetNProbe(opts.SearchNProbe)
	return &FineMoE{
		store:    store,
		searcher: searcher,
		opts:     opts,
		cfg:      cfg,
		d:        d,
		reqs:     map[uint64]*reqState{},
		predProb: make([]float64, cfg.Layers*cfg.RoutedExperts),
		probsBuf: make([]float64, cfg.RoutedExperts),
		orderBuf: make([]int, 0, cfg.RoutedExperts),
		selBuf:   make([]int, 0, cfg.RoutedExperts),
	}
}

// Name implements policy.Policy.
func (f *FineMoE) Name() string { return "FineMoE" }

// Store returns the policy's Expert Map Store.
func (f *FineMoE) Store() *Store { return f.store }

// PrefetchDistance returns the configured d.
func (f *FineMoE) PrefetchDistance() int { return f.d }

// Scorer implements policy.Policy: FineMoE itself scores evictions unless
// an ablation overrides it.
func (f *FineMoE) Scorer() cache.Scorer {
	if f.opts.EvictionScorer != nil {
		return f.opts.EvictionScorer
	}
	return f
}

// Score implements cache.Scorer with the paper's 1/(p·freq) priority,
// weighted by the expert's distance from its next sequential use. §4.5
// observes that expert usage is layer-wise sequential — an expert whose
// layer has just executed will not be needed again until the next
// iteration, so it is the best victim; an expert a few layers ahead is the
// worst.
func (f *FineMoE) Score(ref moe.ExpertRef, m cache.Meta, _ float64) float64 {
	p := f.predProb[f.cfg.RefID(ref)]
	cur := f.curLayer
	distToUse := ref.Layer - cur
	if distToUse < 0 {
		distToUse += f.cfg.Layers
	}
	return EvictPriority(p, m.Freq) * float64(1+distToUse)
}

// MemoryOverheadBytes reports the store footprint (Fig. 18).
func (f *FineMoE) MemoryOverheadBytes() int64 { return f.store.MemoryBytes() }

// selectAndPrefetch picks the experts for one target layer from a searched
// map and enqueues transfers. prefill widens the selection to cover the
// token union. Selection runs entirely in policy-owned scratch — the
// widened distribution, ordering, and selected set reuse the same three
// buffers every call — via the Into kernels, whose results element-equal
// the allocating originals.
//
//finemoe:hotpath
func (f *FineMoE) selectAndPrefetch(res SearchResult, targetLayer, lNow int, issueAt float64, prefill bool) {
	probs := f.probsBuf
	res.Map.LayerProbsInto(targetLayer, f.cfg.RoutedExperts, probs)
	thr := Threshold(res.Score)
	if prefill && thr < prefillMassFloor {
		thr = prefillMassFloor
	}
	sel := tensor.CumulativeTopSetInto(probs, thr, f.cfg.TopK, f.orderBuf[:cap(f.orderBuf)], f.selBuf[:cap(f.selBuf)])
	for _, j := range sel {
		f.predProb[f.cfg.ExpertID(targetLayer, j)] = probs[j]
	}
	for _, j := range sel {
		ref := moe.ExpertRef{Layer: targetLayer, Expert: j}
		if f.RT.Resident(ref) || f.RT.Tracked(ref) {
			continue
		}
		pri := PrefetchPriority(probs[j], targetLayer, lNow)
		// Tier-aware routing: an expert predicted for a layer beyond the
		// near window [lNow, lNow+d] that still lives below DRAM is
		// pre-staged one hop (into DRAM) instead of chained all the way
		// up — far-ahead predictions should warm the big host tier, not
		// churn the small GPU cache; the near-window guidance or the
		// trajectory search issues the final upload once the layer
		// approaches. Under the degenerate two-tier hierarchy Tier never
		// exceeds 1, so this path cannot fire and the transfer schedule
		// is byte-identical to the pre-tiering policy.
		if targetLayer-lNow > f.d && f.RT.Tier(ref) > 1 {
			f.RT.Promote(ref, pri, issueAt)
			continue
		}
		f.RT.Prefetch(ref, pri, issueAt)
	}
}

// StartIteration implements Step 1–3 for the iteration head: collect the
// semantic context, search the store, and prefetch layers [0, d) from the
// semantic match. Everything is asynchronous — the returned sync delay is
// zero and search latency is modeled through transfer issue times.
func (f *FineMoE) StartIteration(views []policy.IterView, now float64) float64 {
	var syncDelay float64
	for _, v := range views {
		f.RT.Account(policy.CompCollect, 0.05)
		st := f.newReqState()
		st.isPrefill = v.IsPrefill
		// One float32 conversion serves the semantic search and the
		// trajectory cursor (the seed converted the embedding twice).
		q := f.searcher.Prepare(v.Semantic)
		semLat := f.searcher.SemanticLatencyMS()
		f.RT.Account(policy.CompMapMatch, semLat)
		if res, ok := f.searcher.SemanticSearchQ(q); ok {
			st.sem, st.semOK = res, true
			issueAt := now + semLat
			if f.opts.SynchronousSearch {
				syncDelay += semLat
				issueAt = now + syncDelay
			}
			// Semantic guidance covers layers [0,d), where no trajectory
			// has been observed yet (§4.2.1). The prefill iteration
			// extends it across every layer: prefill moves whole
			// token-union working sets, so transfers must be issued early
			// to overlap the compute-bound prompt pass. Decode leaves
			// layers [d,L) to the trajectory search — duplicating the
			// guidance there would churn the expert cache with near-miss
			// predictions.
			depth := f.d
			if v.IsPrefill {
				depth = f.cfg.Layers
			}
			for l := 0; l < depth && l < f.cfg.Layers; l++ {
				f.selectAndPrefetch(res, l, 0, issueAt, v.IsPrefill)
			}
		}
		st.cursor = f.searcher.NewCursorQ(q)
		q.Release()
		if old := f.reqs[v.ReqID]; old != nil {
			if old.cursor != nil {
				old.cursor.Release()
			}
			f.freeReqState(old)
		}
		f.reqs[v.ReqID] = st
	}
	return syncDelay
}

// newReqState pops the reqState free list, allocating only while it warms.
//
//finemoe:allocok grows the reqState free list only until it covers the peak batch; steady-state iterations recycle the previous iteration's record
func (f *FineMoE) newReqState() *reqState {
	if n := len(f.stFree); n > 0 {
		st := f.stFree[n-1]
		f.stFree[n-1] = nil
		f.stFree = f.stFree[:n-1]
		return st
	}
	return &reqState{}
}

// freeReqState recycles a record no longer reachable from f.reqs.
func (f *FineMoE) freeReqState(st *reqState) {
	*st = reqState{}
	f.stFree = append(f.stFree, st)
}

// OnGate implements trajectory-based search (§4.2.2): the observed gate
// distribution extends the request's trajectory prefix and the best-match
// map guides prefetching for layer l+d.
func (f *FineMoE) OnGate(layer int, views []policy.LayerView, now float64) float64 {
	f.curLayer = layer
	// Fold the observed gate distribution into the eviction signal: the
	// probability p in 1/(p·freq) is the gate's preference for the
	// expert (§4.5), and the freshest estimate for the current layer is
	// the gate output itself. Without this, activated-but-unpredicted
	// experts would keep the floor probability and be evicted before the
	// cache's temporal locality could help them.
	for _, v := range views {
		for j, p := range v.Probs {
			id := f.cfg.ExpertID(layer, j)
			if decayed := f.predProb[id] * 0.7; p > decayed {
				f.predProb[id] = p
			} else {
				f.predProb[id] = decayed
			}
		}
	}
	// Only layers with a target ahead read the cursor, and StartIteration
	// replaces it, so the last d layers are not observed at all.
	target := layer + f.d
	if target >= f.cfg.Layers {
		return 0
	}
	var syncDelay float64
	for _, v := range views {
		st := f.reqs[v.ReqID]
		if st == nil || st.cursor == nil {
			continue
		}
		st.cursor.Observe(v.Probs)
		trajLat := f.searcher.TrajectoryLatencyMS()
		f.RT.Account(policy.CompMapMatch, trajLat)
		issueAt := now + trajLat
		if f.opts.SynchronousSearch {
			syncDelay += trajLat
			issueAt = now + syncDelay
		}
		if res, ok := st.cursor.Best(); ok {
			f.selectAndPrefetch(res, target, layer, issueAt, st.isPrefill)
		} else if st.semOK {
			// Cold trajectory (shouldn't happen after layer 0) —
			// fall back to the semantic match.
			f.selectAndPrefetch(st.sem, target, layer, issueAt, st.isPrefill)
		}
	}
	return syncDelay
}

// EndIteration publishes the completed iteration's expert map to the store
// (Step 5). The update is asynchronous and does not block inference.
func (f *FineMoE) EndIteration(reqID uint64, it *moe.Iteration, _ float64) float64 {
	f.store.AddIteration(reqID, it)
	// Dedup cost model: one pass over the sampled incumbents.
	f.RT.Account(policy.CompUpdate, 0.1+0.3*f.searcher.TrajectoryLatencyMS())
	return 0
}

// EndRequest drops per-request state, recycling the trajectory cursor's
// pooled score buffers.
func (f *FineMoE) EndRequest(reqID uint64, _ float64) {
	if st := f.reqs[reqID]; st != nil {
		if st.cursor != nil {
			st.cursor.Release()
		}
		f.freeReqState(st)
	}
	delete(f.reqs, reqID)
}

// Package baselines implements the four state-of-the-art systems the paper
// compares against (§6.1), re-expressed as policies over the same serving
// engine, plus the No-Offload upper bound of Fig. 1b:
//
//   - DeepSpeed-Inference: expert-agnostic synchronous full-layer fetching,
//     no prefetching (hit rate 1.0 by construction, worst latency).
//   - Mixtral-Offloading: distance-1 synchronous speculative prefetching
//     with an LRU expert cache.
//   - ProMoE: stride-based speculative prefetching at a fixed distance with
//     per-layer learned predictors (modeled as the speculation oracle plus
//     the predictor's GPU-side inference cost, per §7).
//   - MoE-Infinity: request-level Expert Activation Matrix tracking with
//     synchronous per-layer prediction, asynchronous task-pool transfers,
//     and an LFU cache.
package baselines

import (
	"sort"
	"sync"

	"finemoe/internal/cache"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/tensor"
)

// ---------------------------------------------------------------------------
// No-Offload

// NoOffload keeps every expert resident (the engine preloads the cache) and
// performs no transfers: the latency floor and memory ceiling of Fig. 1b.
type NoOffload struct{ policy.Base }

var _ policy.Policy = (*NoOffload)(nil)

// NewNoOffload returns the no-offloading policy.
func NewNoOffload() *NoOffload { return &NoOffload{} }

// Name implements policy.Policy.
func (*NoOffload) Name() string { return "No-offload" }

// ---------------------------------------------------------------------------
// DeepSpeed-Inference

// DeepSpeed models DeepSpeed-Inference's layer-wise parameter offloading:
// at each layer it synchronously loads the whole layer's expert weights
// before the gate consults them — expert-agnostic, no prefetching (§6.1).
// The paper adds an expert cache for fairness; ours uses LRU.
type DeepSpeed struct {
	policy.Base
	cfg moe.Config
}

var _ policy.Policy = (*DeepSpeed)(nil)

// NewDeepSpeed returns the DeepSpeed-Inference baseline.
func NewDeepSpeed() *DeepSpeed { return &DeepSpeed{} }

// Name implements policy.Policy.
func (*DeepSpeed) Name() string { return "DeepSpeed" }

// Attach implements policy.Policy.
func (d *DeepSpeed) Attach(rt policy.Runtime) {
	d.Base.Attach(rt)
	d.cfg = rt.Config()
}

// OnGate synchronously fetches every non-resident expert of the current
// layer. This runs before the engine resolves activations, so every
// activated expert is resident — DeepSpeed's hit rate is 1.0 while its
// latency absorbs full-layer transfer time (§6.2).
func (d *DeepSpeed) OnGate(layer int, _ []policy.LayerView, now float64) float64 {
	var missing []moe.ExpertRef
	for j := 0; j < d.cfg.RoutedExperts; j++ {
		ref := moe.ExpertRef{Layer: layer, Expert: j}
		if !d.RT.Resident(ref) {
			missing = append(missing, ref)
		}
	}
	if len(missing) == 0 {
		return 0
	}
	end := d.RT.SyncLoad(missing, now)
	return end - now
}

// ---------------------------------------------------------------------------
// Mixtral-Offloading

// MixtralOffload models Mixtral-Offloading (§6.1): speculative prediction
// of the next layer's experts from the current hidden state (accurate at
// distance 1 thanks to residual connections, §6.6), loaded synchronously —
// the transfer serializes with compute, giving a high hit rate but poor
// latency (§6.2) — over an LRU cache.
type MixtralOffload struct {
	policy.Base
	model *moe.Model
	cfg   moe.Config
	// SpecOverheadMS is the CPU-side cost of one speculation step.
	SpecOverheadMS float64
}

var _ policy.Policy = (*MixtralOffload)(nil)

// NewMixtralOffload returns the baseline; model provides the gate used for
// speculation (the real system reuses the model's own gate weights).
func NewMixtralOffload(model *moe.Model) *MixtralOffload {
	// The real system is an eager Python loop that blocks each layer on
	// speculation and weight movement; ~2 ms per layer of dispatch
	// overhead matches its measured per-token latency on the HF stack.
	return &MixtralOffload{model: model, cfg: model.Cfg, SpecOverheadMS: 2.0}
}

// Name implements policy.Policy.
func (*MixtralOffload) Name() string { return "Mixtral-Offload" }

// Scorer implements policy.Policy: Mixtral-Offloading uses LRU (§4.5).
func (*MixtralOffload) Scorer() cache.Scorer { return cache.LRU{} }

// StartIteration speculatively loads layer 0's experts from the iteration's
// input state.
func (m *MixtralOffload) StartIteration(views []policy.IterView, now float64) float64 {
	var delay float64
	for _, v := range views {
		delay += m.speculateAndLoad(v.Semantic, 0, now+delay)
	}
	return delay
}

// OnGate speculatively loads layer+1's experts from the current hidden
// state, blocking until the transfer completes (synchronous prefetching).
func (m *MixtralOffload) OnGate(layer int, views []policy.LayerView, now float64) float64 {
	if layer+1 >= m.cfg.Layers {
		return 0
	}
	var delay float64
	for _, v := range views {
		delay += m.speculateAndLoad(v.Hidden, layer+1, now+delay)
	}
	return delay
}

func (m *MixtralOffload) speculateAndLoad(hidden []float64, target int, now float64) float64 {
	probs := make([]float64, m.cfg.RoutedExperts)
	m.model.Speculate(hidden, target, probs)
	var missing []moe.ExpertRef
	for _, j := range tensor.TopK(probs, m.cfg.TopK) {
		ref := moe.ExpertRef{Layer: target, Expert: j}
		if !m.RT.Resident(ref) {
			missing = append(missing, ref)
		}
	}
	m.RT.Account(policy.CompPredict, m.SpecOverheadMS)
	delay := m.SpecOverheadMS
	if len(missing) > 0 {
		end := m.RT.SyncLoad(missing, now+delay)
		delay = end - now
	}
	return delay
}

// ---------------------------------------------------------------------------
// ProMoE

// ProMoE models ProMoE's stride-based speculative prefetching (§6.1):
// learned per-layer predictors forecast experts a fixed stride ahead and
// prefetch asynchronously. The predictors run on the GPU and contend with
// inference — §7 reports NN predictors cost substantial latency — modeled
// as a synchronous per-layer predictor charge.
type ProMoE struct {
	policy.Base
	model *moe.Model
	cfg   moe.Config
	// Stride is the prefetch distance (default 3).
	Stride int
	// PredictorMS is the per-layer GPU predictor cost.
	PredictorMS float64
}

var _ policy.Policy = (*ProMoE)(nil)

// NewProMoE returns the baseline with the stride used across the paper's
// experiments.
func NewProMoE(model *moe.Model) *ProMoE {
	return &ProMoE{model: model, cfg: model.Cfg, Stride: 3, PredictorMS: 2.5}
}

// Name implements policy.Policy.
func (*ProMoE) Name() string { return "ProMoE" }

// Scorer implements policy.Policy: LFU pairs best with stride prefetching.
func (*ProMoE) Scorer() cache.Scorer { return cache.LFU{} }

// StartIteration prefetches the first Stride layers speculatively from the
// iteration input state.
func (p *ProMoE) StartIteration(views []policy.IterView, now float64) float64 {
	for _, v := range views {
		for l := 0; l < p.Stride && l < p.cfg.Layers; l++ {
			p.speculatePrefetch(v.Semantic, l, l, now)
		}
	}
	return 0
}

// OnGate predicts layer+Stride from the current hidden state and prefetches
// asynchronously, paying the predictor's GPU cost synchronously.
func (p *ProMoE) OnGate(layer int, views []policy.LayerView, now float64) float64 {
	target := layer + p.Stride
	var delay float64
	for _, v := range views {
		if target < p.cfg.Layers {
			p.speculatePrefetch(v.Hidden, target, layer, now)
		}
		delay += p.PredictorMS
	}
	p.RT.Account(policy.CompPredict, p.PredictorMS*float64(len(views)))
	return delay
}

func (p *ProMoE) speculatePrefetch(hidden []float64, target, lNow int, now float64) {
	probs := make([]float64, p.cfg.RoutedExperts)
	p.model.Speculate(hidden, target, probs)
	for _, j := range tensor.TopK(probs, p.cfg.TopK) {
		ref := moe.ExpertRef{Layer: target, Expert: j}
		if p.RT.Resident(ref) || p.RT.Tracked(ref) {
			continue
		}
		dist := target - lNow
		if dist < 1 {
			dist = 1
		}
		p.RT.Prefetch(ref, probs[j]/float64(dist), now)
	}
}

// ---------------------------------------------------------------------------
// MoE-Infinity

// EAM is MoE-Infinity's request-level Expert Activation Matrix: per-layer
// expert activation counts aggregated over a whole request (§2.4) — the
// coarse-grained tracking structure the paper's expert map improves upon.
type EAM struct {
	// Counts is L×J row-major activation counts.
	Counts []float64
}

// NewEAM builds an empty matrix.
func NewEAM(cfg moe.Config) *EAM {
	return &EAM{Counts: make([]float64, cfg.Layers*cfg.RoutedExperts)}
}

// ObserveIteration aggregates one iteration's activations.
func (e *EAM) ObserveIteration(cfg moe.Config, it *moe.Iteration) {
	for l, act := range it.Active {
		for _, j := range act {
			e.Counts[l*cfg.RoutedExperts+j]++
		}
	}
}

// ObserveLayer aggregates a single layer's activations.
func (e *EAM) ObserveLayer(cfg moe.Config, layer int, experts []int) {
	for _, j := range experts {
		e.Counts[layer*cfg.RoutedExperts+j]++
	}
}

// TopExperts returns the n highest-count experts at a layer.
func (e *EAM) TopExperts(cfg moe.Config, layer, n int) []int {
	row := e.Counts[layer*cfg.RoutedExperts : (layer+1)*cfg.RoutedExperts]
	return tensor.TopK(row, n)
}

// EAMFromTrace builds a request's full matrix from its iterations.
func EAMFromTrace(cfg moe.Config, iters []*moe.Iteration) *EAM {
	e := NewEAM(cfg)
	for _, it := range iters {
		e.ObserveIteration(cfg, it)
	}
	return e
}

// EAMCollection is MoE-Infinity's historical matrix store.
type EAMCollection struct {
	mu   sync.RWMutex
	cfg  moe.Config
	eams []*EAM
	// popular caches global activation counts for cold-start prefetching.
	popular []float64
}

// NewEAMCollection builds an empty collection.
func NewEAMCollection(cfg moe.Config) *EAMCollection {
	return &EAMCollection{cfg: cfg, popular: make([]float64, cfg.Layers*cfg.RoutedExperts)}
}

// Add stores a completed request's matrix.
func (c *EAMCollection) Add(e *EAM) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eams = append(c.eams, e)
	for i, v := range e.Counts {
		c.popular[i] += v
	}
}

// Len returns the number of stored matrices.
func (c *EAMCollection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.eams)
}

// Clone returns an independent collection sharing the immutable stored
// matrices, so each serving run mutates its own copy.
func (c *EAMCollection) Clone() *EAMCollection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := NewEAMCollection(c.cfg)
	out.eams = make([]*EAM, len(c.eams))
	copy(out.eams, c.eams)
	copy(out.popular, c.popular)
	return out
}

// Search returns the stored matrix most similar (cosine) to the partial
// matrix of the in-flight request, or ok=false when empty.
func (c *EAMCollection) Search(partial *EAM) (*EAM, float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.eams) == 0 {
		return nil, 0, false
	}
	bestIdx, bestScore := -1, -2.0
	for i, e := range c.eams {
		if s := tensor.Cosine(partial.Counts, e.Counts); s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	return c.eams[bestIdx], bestScore, true
}

// PopularExperts returns the globally most-activated experts at a layer —
// MoE-Infinity's cold-start prefetching rule (§4.2).
func (c *EAMCollection) PopularExperts(layer, n int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	row := c.popular[layer*c.cfg.RoutedExperts : (layer+1)*c.cfg.RoutedExperts]
	return tensor.TopK(row, n)
}

// MemoryBytes reports the collection's CPU footprint (float32 accounting,
// like the paper's comparison in §4.4).
func (c *EAMCollection) MemoryBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.eams)) * int64(c.cfg.Layers*c.cfg.RoutedExperts) * 4
}

// MoEInfinity models MoE-Infinity (§6.1): request-level EAM tracking,
// synchronous per-layer prediction (the design §4.3 criticizes), transfers
// through an asynchronous task pool, and LFU caching.
type MoEInfinity struct {
	policy.Base
	cfg  moe.Config
	coll *EAMCollection
	// SearchMS is the synchronous per-prediction matrix-search cost.
	SearchMS float64
	// PrefetchPerLayer is how many experts per layer it prefetches from
	// the matched matrix.
	PrefetchPerLayer int

	mu   sync.Mutex
	reqs map[uint64]*EAM // partial matrices of in-flight requests
}

var _ policy.Policy = (*MoEInfinity)(nil)

// NewMoEInfinity builds the baseline around a (possibly pre-populated)
// matrix collection.
func NewMoEInfinity(coll *EAMCollection) *MoEInfinity {
	return &MoEInfinity{
		cfg:              coll.cfg,
		coll:             coll,
		SearchMS:         0.4,
		PrefetchPerLayer: 0, // defaults to TopK at Attach
		reqs:             map[uint64]*EAM{},
	}
}

// Name implements policy.Policy.
func (*MoEInfinity) Name() string { return "MoE-Infinity" }

// Scorer implements policy.Policy: LFU (§4.5).
func (*MoEInfinity) Scorer() cache.Scorer { return cache.LFU{} }

// MemoryOverheadBytes reports the matrix collection footprint.
func (m *MoEInfinity) MemoryOverheadBytes() int64 { return m.coll.MemoryBytes() }

// Attach implements policy.Policy.
func (m *MoEInfinity) Attach(rt policy.Runtime) {
	m.Base.Attach(rt)
	if m.PrefetchPerLayer <= 0 {
		m.PrefetchPerLayer = m.cfg.TopK
	}
}

// StartRequest initializes the request's partial matrix.
func (m *MoEInfinity) StartRequest(reqID uint64, _ float64) float64 {
	m.mu.Lock()
	m.reqs[reqID] = NewEAM(m.cfg)
	m.mu.Unlock()
	return 0
}

// StartIteration searches the collection with the request's partial matrix
// (synchronously — the request-level prediction step) and prefetches the
// matched matrix's top experts for every layer through the async task pool.
// Cold requests fall back to globally popular experts.
func (m *MoEInfinity) StartIteration(views []policy.IterView, now float64) float64 {
	var delay float64
	for _, v := range views {
		m.mu.Lock()
		partial := m.reqs[v.ReqID]
		m.mu.Unlock()
		if partial == nil {
			continue
		}
		delay += m.SearchMS
		m.RT.Account(policy.CompMapMatch, m.SearchMS)
		matched, _, ok := m.coll.Search(partial)
		for l := 0; l < m.cfg.Layers; l++ {
			var experts []int
			if ok {
				experts = matched.TopExperts(m.cfg, l, m.PrefetchPerLayer)
			} else if m.coll.Len() > 0 {
				experts = m.coll.PopularExperts(l, m.PrefetchPerLayer)
			} else {
				continue
			}
			for rank, j := range experts {
				ref := moe.ExpertRef{Layer: l, Expert: j}
				if m.RT.Resident(ref) || m.RT.Tracked(ref) {
					continue
				}
				prio := 1.0/float64(l+1) - 0.001*float64(rank)
				m.RT.Prefetch(ref, prio, now+delay)
			}
		}
	}
	return delay
}

// OnGate pays the synchronous per-layer prediction cost and records the
// layer's activations into the partial matrix. (Activations are delivered
// through EndIteration's full record; here we aggregate probabilities into
// counts with a top-K cut, mirroring the engine's activation rule.)
func (m *MoEInfinity) OnGate(layer int, views []policy.LayerView, now float64) float64 {
	var delay float64
	for _, v := range views {
		m.mu.Lock()
		partial := m.reqs[v.ReqID]
		m.mu.Unlock()
		if partial == nil {
			continue
		}
		partial.ObserveLayer(m.cfg, layer, tensor.TopK(v.Probs, m.cfg.TopK))
		delay += m.SearchMS * 0.5 // per-layer synchronous re-prediction
	}
	m.RT.Account(policy.CompMapMatch, delay)
	return delay
}

// EndRequest publishes the request's matrix to the collection: complete
// for a finished request, partial for one the engine dropped mid-batch.
func (m *MoEInfinity) EndRequest(reqID uint64, _ float64) {
	m.mu.Lock()
	partial := m.reqs[reqID]
	delete(m.reqs, reqID)
	m.mu.Unlock()
	if partial != nil {
		m.coll.Add(partial)
	}
}

// BuildEAMCollection pre-populates a collection from request traces — the
// paper prepares MoE-Infinity's matrices before evaluation for fairness
// (§6.1).
func BuildEAMCollection(cfg moe.Config, traces map[uint64][]*moe.Iteration) *EAMCollection {
	coll := NewEAMCollection(cfg)
	ids := make([]uint64, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		coll.Add(EAMFromTrace(cfg, traces[id]))
	}
	return coll
}

// CoarsePredict returns per-layer predicted expert sets for an upcoming
// iteration using request-level matrices — the "coarse-grained" predictor
// of Figs. 3/4/14a. history is the request's matrix aggregated so far.
func CoarsePredict(cfg moe.Config, coll *EAMCollection, history *EAM, perLayer int) [][]int {
	matched, _, ok := coll.Search(history)
	out := make([][]int, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		if ok {
			out[l] = matched.TopExperts(cfg, l, perLayer)
		} else if coll.Len() > 0 {
			out[l] = coll.PopularExperts(l, perLayer)
		}
	}
	return out
}

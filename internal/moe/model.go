package moe

import (
	"fmt"
	"sync"

	"finemoe/internal/rng"
	"finemoe/internal/tensor"
)

// Key-space constants for deriving independent deterministic noise streams.
const (
	keyGate uint64 = iota + 1
	keyDrift
	keyPromptLayer
	keyIterLayer
	keyIterTok
	keySemObs
	keyPrefillTok
)

// Model is a simulated MoE gate network. It deterministically maps latent
// semantic states to per-layer expert probability distributions with the
// statistical properties described in DESIGN.md §4. A Model is safe for
// concurrent use once constructed.
type Model struct {
	Cfg  Config
	seed uint64

	// gateW[l] is the J×SemDim routing projection of layer l.
	gateW [][]float64
	// driftW[l] is the SemDim×SemDim drift field of layer l; the
	// within-iteration hidden walk moves along normalize(driftW[l]·x).
	driftW [][]float64

	// free is the trace storage every Tracer of the model recycles into
	// and draws from (see Tracer.Recycle).
	free iterFree
}

// iterFree is a model's free list of trace storage: recycled Iterations
// and the []*Iteration slices that held them. There is one list per
// model, behind a mutex, so a trace simulated by a Tracer on one
// goroutine can be recycled through another Tracer on another goroutine,
// and the list's high-water mark follows the traces live across the
// whole fleet rather than the sum of per-engine peaks.
type iterFree struct {
	mu     sync.Mutex
	its    []*Iteration
	slices [][]*Iteration
}

// take returns dst[:0] filled with n iterations, recycled ones first. A
// dst without storage of its own is replaced by a recycled slice.
func (f *iterFree) take(dst []*Iteration, n int) []*Iteration {
	dst = dst[:0]
	f.mu.Lock()
	if k := len(f.slices) - 1; cap(dst) == 0 && k >= 0 {
		dst = f.slices[k]
		f.slices[k] = nil
		f.slices = f.slices[:k]
	}
	for len(dst) < n && len(f.its) > 0 {
		k := len(f.its) - 1
		dst = append(dst, f.its[k])
		f.its[k] = nil
		f.its = f.its[:k]
	}
	f.mu.Unlock()
	for len(dst) < n {
		dst = append(dst, new(Iteration))
	}
	return dst
}

// NewModel builds the simulated gate network for cfg. The same (cfg.Name,
// seed) pair always yields an identical model.
func NewModel(cfg Config, seed uint64) *Model {
	if cfg.Layers <= 0 || cfg.RoutedExperts <= 0 {
		panic(fmt.Sprintf("moe: invalid config %+v", cfg))
	}
	if cfg.TopK <= 0 || cfg.TopK > cfg.RoutedExperts {
		panic(fmt.Sprintf("moe: TopK %d out of range for %d experts", cfg.TopK, cfg.RoutedExperts))
	}
	m := &Model{Cfg: cfg, seed: seed}
	m.gateW = make([][]float64, cfg.Layers)
	m.driftW = make([][]float64, cfg.Layers)
	nameKey := hashString(cfg.Name)
	for l := 0; l < cfg.Layers; l++ {
		gw := make([]float64, cfg.RoutedExperts*cfg.SemDim)
		gr := rng.New(rng.Mix(seed, nameKey, keyGate, uint64(l)))
		for j := 0; j < cfg.RoutedExperts; j++ {
			gr.UnitVec(gw[j*cfg.SemDim : (j+1)*cfg.SemDim])
		}
		m.gateW[l] = gw

		dw := make([]float64, cfg.SemDim*cfg.SemDim)
		dr := rng.New(rng.Mix(seed, nameKey, keyDrift, uint64(l)))
		for i := range dw {
			dw[i] = dr.Norm()
		}
		m.driftW[l] = dw
	}
	return m
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// GateProbs writes layer's routing distribution for hidden state u into dst
// (length RoutedExperts). This is the ground-truth gate; baselines use it
// through Speculate.
// It is allocation-free: the logits are materialized in dst itself and
// softmaxed in place (Softmax documents that dst may alias logits), which
// leaves every float64 operation and its order unchanged.
//
//finemoe:hotpath
func (m *Model) GateProbs(u []float64, layer int, dst []float64) {
	cfg := m.Cfg
	tensor.MatVec(m.gateW[layer], cfg.RoutedExperts, cfg.SemDim, u, dst)
	tensor.Softmax(dst, cfg.InvTemp, dst)
}

// Speculate predicts targetLayer's routing distribution from a hidden state
// observed at an earlier layer — the mechanism behind Mixtral-Offloading's
// and ProMoE's speculative prefetching. Accuracy decays with the distance
// between the observation layer and targetLayer because the hidden walk's
// drift accumulates.
func (m *Model) Speculate(hiddenAtEarlierLayer []float64, targetLayer int, dst []float64) {
	m.GateProbs(hiddenAtEarlierLayer, targetLayer, dst)
}

// driftDir writes normalize(driftW[l]·x) into dst.
func (m *Model) driftDir(l int, x, dst []float64) {
	tensor.MatVec(m.driftW[l], m.Cfg.SemDim, m.Cfg.SemDim, x, dst)
	tensor.Normalize(dst)
}

// Iteration is the observable outcome of one inference iteration: the gate's
// probability distributions per layer, the activated routed experts, the
// hidden-state trajectory (available to speculation-based policies), and the
// semantic embedding the serving system observes.
type Iteration struct {
	// Index is the iteration number within the request; 0 is the prefill
	// iteration, subsequent indices are decode steps.
	Index int
	// Probs[l] is the layer-l gate distribution over routed experts. For
	// prefill it is the mean distribution across prompt tokens.
	Probs [][]float64
	// Active[l] lists the routed experts computed at layer l: the top-K
	// experts for a decode token, or the union of per-token top-K sets
	// for prefill, in first-activation order.
	Active [][]int
	// Hidden[l] is the hidden state entering layer l's gate.
	Hidden [][]float64
	// Semantic is the observed semantic embedding for this iteration
	// (embedding-layer output plus observation noise).
	Semantic []float64
	// Tokens is the number of tokens processed this iteration (prompt
	// length for prefill, 1 for decode).
	Tokens int
}

// PromptSpec describes one request prompt for simulation. Embedding must be
// a unit vector of the model's SemDim.
type PromptSpec struct {
	// ID uniquely identifies the request within a workload.
	ID uint64
	// Embedding is the latent semantic vector of the prompt.
	Embedding []float64
	// InputTokens and OutputTokens are the prompt and generation lengths.
	InputTokens  int
	OutputTokens int
	// Seed drives all per-prompt noise streams.
	Seed uint64
}

// RequestSim simulates one request's inference, iteration by iteration.
// It is not safe for concurrent use.
type RequestSim struct {
	m    *Model
	spec PromptSpec
	x    []float64 // current latent iteration state
	iter int

	// scratch, reused across iterations (and across requests when the sim
	// itself is reused through a Tracer). Every buffer is fully overwritten
	// before use, so reuse cannot change any produced value.
	drift  []float64
	u      []float64
	obs    []float64 // observation / iteration-noise direction scratch
	tok    []float64 // conversation-path token scratch
	eta    []float64 // per-layer noise scratch
	probs  []float64 // prefill per-token gate scratch
	order  []int     // TopKInto index scratch
	seen   []bool    // prefill expert-union membership scratch
	states []float64 // prefill per-token hidden states, flat n×SemDim

	// Memoized walk ingredients (see walkLayer). promptEta holds the
	// per-layer prompt noise η_prompt(l), flat Layers×SemDim: it is a
	// function of (request seed, layer) alone, so one row per layer
	// serves every prompt token and every decode iteration. drift and
	// iterEta are keyed by the (iteration, layer) pair below — prefill
	// walks the same layer once per prompt token and would otherwise
	// recompute identical values for each.
	promptEta             []float64
	iterEta               []float64
	driftIter, driftLayer int
	etaIter, etaLayer     int
}

// NewRequest starts simulating a request. It panics if the embedding
// dimension does not match the model.
func (m *Model) NewRequest(spec PromptSpec) *RequestSim {
	r := &RequestSim{}
	r.Reset(m, spec)
	return r
}

// Reset re-arms the sim for a new request, reusing its scratch buffers.
// It panics under the same conditions as NewRequest.
func (r *RequestSim) Reset(m *Model, spec PromptSpec) {
	if len(spec.Embedding) != m.Cfg.SemDim {
		panic(fmt.Sprintf("moe: embedding dim %d != SemDim %d", len(spec.Embedding), m.Cfg.SemDim))
	}
	if spec.InputTokens <= 0 || spec.OutputTokens <= 0 {
		panic("moe: request must have positive input and output token counts")
	}
	dim, j := m.Cfg.SemDim, m.Cfg.RoutedExperts
	r.m, r.spec, r.iter = m, spec, 0
	r.x = resizeF64(r.x, dim)
	copy(r.x, spec.Embedding)
	r.drift = resizeF64(r.drift, dim)
	r.u = resizeF64(r.u, dim)
	r.obs = resizeF64(r.obs, dim)
	r.tok = resizeF64(r.tok, dim)
	r.eta = resizeF64(r.eta, dim)
	r.probs = resizeF64(r.probs, j)
	if cap(r.order) < j {
		r.order = make([]int, 0, j)
	}
	if cap(r.seen) < j {
		r.seen = make([]bool, j)
	}
	r.seen = r.seen[:j]
	// Draw the per-layer prompt noise up front: each row comes from its
	// own Seeded generator exactly as the per-call draws did, so hoisting
	// the draws to Reset reproduces the same bytes while every later
	// walkLayer call becomes a reuse.
	layers := m.Cfg.Layers
	r.promptEta = resizeF64(r.promptEta, layers*dim)
	for l := 0; l < layers; l++ {
		g := rng.Seeded(rng.Mix(spec.Seed, keyPromptLayer, uint64(l)))
		g.UnitVec(r.promptEta[l*dim : (l+1)*dim])
	}
	r.iterEta = resizeF64(r.iterEta, dim)
	r.driftIter, r.driftLayer = -1, -1
	r.etaIter, r.etaLayer = -1, -1
}

// resizeF64 returns a slice of length n, reusing v's backing array when it
// is large enough.
func resizeF64(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// TotalIterations returns the number of iterations the request spans:
// one prefill plus OutputTokens-1 decode steps (the prefill iteration emits
// the first output token, §2.1).
func (r *RequestSim) TotalIterations() int {
	if r.spec.OutputTokens < 1 {
		return 1
	}
	return r.spec.OutputTokens
}

// Done reports whether all iterations have been produced.
func (r *RequestSim) Done() bool { return r.iter >= r.TotalIterations() }

// Spec returns the request's prompt specification.
func (r *RequestSim) Spec() PromptSpec { return r.spec }

// ensureShape sizes the iteration's per-layer buffers for cfg, reusing
// existing backing arrays when their capacities allow — the mechanism that
// lets a Tracer recycle iterations of completed requests without a single
// steady-state allocation.
func (it *Iteration) ensureShape(cfg Config) {
	layers, j, dim := cfg.Layers, cfg.RoutedExperts, cfg.SemDim
	if cap(it.Probs) < layers {
		it.Probs = make([][]float64, layers)
	}
	it.Probs = it.Probs[:layers]
	if cap(it.Active) < layers {
		it.Active = make([][]int, layers)
	}
	it.Active = it.Active[:layers]
	if cap(it.Hidden) < layers {
		it.Hidden = make([][]float64, layers)
	}
	it.Hidden = it.Hidden[:layers]
	for l := 0; l < layers; l++ {
		it.Probs[l] = resizeF64(it.Probs[l], j)
		it.Hidden[l] = resizeF64(it.Hidden[l], dim)
		if cap(it.Active[l]) < j {
			it.Active[l] = make([]int, 0, j)
		}
	}
	it.Semantic = resizeF64(it.Semantic, dim)
}

// Next produces the next iteration. It panics if called after Done.
func (r *RequestSim) Next() *Iteration {
	return r.NextInto(new(Iteration))
}

// NextInto produces the next iteration into it, reusing its buffers
// (ensureShape). The values written are bit-identical to Next's: every
// reused buffer is fully overwritten (or explicitly zeroed where the seed
// accumulated into a fresh slice) before use.
func (r *RequestSim) NextInto(it *Iteration) *Iteration {
	if r.Done() {
		panic("moe: Next called on finished request")
	}
	cfg := r.m.Cfg
	it.ensureShape(cfg)
	it.Index = r.iter

	// Observed semantic embedding: latent state + observation noise.
	sem := it.Semantic
	copy(sem, r.x)
	g := rng.Seeded(rng.Mix(r.spec.Seed, keySemObs, uint64(r.iter)))
	g.UnitVec(r.obs)
	tensor.Axpy(cfg.SemObsNoise, r.obs, sem)
	tensor.Normalize(sem)

	if r.iter == 0 {
		r.prefill(it)
	} else {
		r.decode(it)
	}

	// Advance the latent state for the next iteration. The drift mixes a
	// topic-shared conversation path — a deterministic function of the
	// prompt embedding and the iteration index, so same-topic requests
	// traverse near-identical trajectories the Expert Map Store can
	// match — with prompt-unique token noise. The cumulative walk is what
	// blurs request-level aggregates (Fig. 3c) without destroying
	// iteration-level searchability.
	tok := r.tok
	pathIdx := int(uint(r.iter*7+3)) % cfg.Layers
	r.m.driftDir(pathIdx, r.spec.Embedding, tok)
	tensor.Scale(cfg.PathShare, tok)
	g = rng.Seeded(rng.Mix(r.spec.Seed, keyIterTok, uint64(r.iter)))
	g.UnitVec(r.eta)
	tensor.Axpy(1-cfg.PathShare, r.eta, tok)
	tensor.Normalize(tok)

	tensor.Scale(1-cfg.IterAnchor-cfg.IterNoise, r.x)
	tensor.Axpy(cfg.IterAnchor, r.spec.Embedding, r.x)
	tensor.Axpy(cfg.IterNoise, tok, r.x)
	tensor.Normalize(r.x)

	r.iter++
	return it
}

// walkLayer advances hidden state u through layer l's drift field:
// u ← normalize(u + σ_d·drift(x) + σ_p·η_prompt(l) + σ_q·η_iter(l)).
//
//finemoe:hotpath
func (r *RequestSim) walkLayer(u []float64, l, iter int) {
	cfg := r.m.Cfg
	// The drift direction is a pure function of (layer, r.x), and r.x is
	// constant within an iteration — prefill calls this once per prompt
	// token per layer, so only the first call of an (iteration, layer)
	// pair computes. Memoization replays the identical MatVec+Normalize
	// output and consumes no RNG draws, so every produced byte matches
	// the recompute-every-call path.
	if r.driftIter != iter || r.driftLayer != l {
		r.m.driftDir(l, r.x, r.drift)
		r.driftIter, r.driftLayer = iter, l
	}
	tensor.Axpy(cfg.LayerDrift, r.drift, u)

	// η_prompt(l) was drawn once at Reset (same Seeded generator, same
	// draw sequence as a per-call draw).
	dim := cfg.SemDim
	tensor.Axpy(cfg.PromptNoise, r.promptEta[l*dim:(l+1)*dim], u)

	// η_iter(iter, l) likewise repeats across prefill's token loop.
	if r.etaIter != iter || r.etaLayer != l {
		g := rng.Seeded(rng.Mix(r.spec.Seed, keyIterLayer, uint64(iter), uint64(l)))
		g.UnitVec(r.iterEta)
		r.etaIter, r.etaLayer = iter, l
	}
	tensor.Axpy(cfg.IterLayerNoise, r.iterEta, u)

	tensor.Normalize(u)
}

// decode runs a single-token iteration.
//
//finemoe:hotpath
func (r *RequestSim) decode(it *Iteration) {
	cfg := r.m.Cfg
	copy(r.u, r.x)
	for l := 0; l < cfg.Layers; l++ {
		r.walkLayer(r.u, l, it.Index)
		copy(it.Hidden[l], r.u)
		p := it.Probs[l]
		r.m.GateProbs(r.u, l, p)
		it.Active[l] = append(it.Active[l][:0], tensor.TopKInto(p, cfg.TopK, r.order[:cap(r.order)])...)
	}
	it.Tokens = 1
}

// prefill runs the prompt iteration: every input token follows its own
// hidden walk; the layer's activated set is the union of per-token top-K
// selections and the recorded distribution is the token mean.
func (r *RequestSim) prefill(it *Iteration) {
	cfg := r.m.Cfg
	n := r.spec.InputTokens
	it.Tokens = n

	// Per-token starting states around the prompt embedding, flat in the
	// sim's scratch arena (the only per-request growth: the longest prompt
	// seen sizes the buffer once).
	if cap(r.states) < n*cfg.SemDim {
		r.states = make([]float64, n*cfg.SemDim)
	}
	states := r.states[:n*cfg.SemDim]
	for k := 0; k < n; k++ {
		v := states[k*cfg.SemDim : (k+1)*cfg.SemDim]
		copy(v, r.x)
		g := rng.Seeded(rng.Mix(r.spec.Seed, keyPrefillTok, uint64(k)))
		g.UnitVec(r.obs)
		tensor.Axpy(cfg.PrefillTokenNoise, r.obs, v)
		tensor.Normalize(v)
	}

	probs := r.probs
	for l := 0; l < cfg.Layers; l++ {
		mean := it.Probs[l]
		for i := range mean {
			mean[i] = 0
		}
		active := it.Active[l][:0]
		seen := r.seen
		for i := range seen {
			seen[i] = false
		}
		meanHidden := it.Hidden[l]
		for i := range meanHidden {
			meanHidden[i] = 0
		}
		for k := 0; k < n; k++ {
			u := states[k*cfg.SemDim : (k+1)*cfg.SemDim]
			r.walkLayer(u, l, 0)
			// Per-token content keeps influencing routing at every
			// depth; without this the shared drift field would
			// collapse token diversity (and the per-layer expert
			// union) in deep layers.
			g := rng.Seeded(rng.Mix(r.spec.Seed, keyPrefillTok, uint64(k), uint64(l)+1))
			g.UnitVec(r.tok)
			tensor.Axpy(cfg.PrefillTokenNoise*0.35, r.tok, u)
			tensor.Normalize(u)
			r.m.GateProbs(u, l, probs)
			tensor.Axpy(1, probs, mean)
			for _, j := range tensor.TopKInto(probs, cfg.TopK, r.order[:cap(r.order)]) {
				if !seen[j] {
					seen[j] = true
					active = append(active, j)
				}
			}
			tensor.Axpy(1, u, meanHidden)
		}
		tensor.Scale(1/float64(n), mean)
		tensor.Normalize(meanHidden)
		it.Active[l] = active
	}
}

// Trace fully simulates a request and returns every iteration. It is the
// cacheable unit shared across policy evaluations (gate behaviour does not
// depend on the serving policy).
func (m *Model) Trace(spec PromptSpec) []*Iteration {
	r := m.NewRequest(spec)
	out := make([]*Iteration, 0, r.TotalIterations())
	for !r.Done() {
		out = append(out, r.Next())
	}
	return out
}

// Tracer amortizes gate-trace simulation across requests: it reuses one
// RequestSim's scratch buffers and draws Iterations from its model's
// free list, to which completed requests' traces are recycled, so a long
// serving run's steady-state trace cost is pure compute. Trace is
// single-threaded — give each goroutine its own Tracer — but Recycle is
// safe from any goroutine.
type Tracer struct {
	m   *Model
	sim RequestSim
}

// NewTracer builds a tracer for m.
func (m *Model) NewTracer() *Tracer { return &Tracer{m: m} }

// Trace simulates spec like Model.Trace but fills dst[:0], drawing
// recycled Iterations (and, when dst has no storage, a recycled slice)
// from the model's free list before allocating. The caller owns the
// result until it hands it back via Recycle. The tracer keeps nothing of
// spec once Trace returns.
//
//finemoe:allocok allocates iterations only while the free list warms up; steady state recycles completed requests' iterations
func (t *Tracer) Trace(spec PromptSpec, dst []*Iteration) []*Iteration {
	r := &t.sim
	r.Reset(t.m, spec)
	dst = t.m.free.take(dst, r.TotalIterations())
	for _, it := range dst {
		r.NextInto(it)
	}
	// An idle tracer would otherwise pin the prompt's embedding — and
	// the 1024-row arena block it was cut from — until its next Trace.
	r.spec = PromptSpec{}
	return dst
}

// Recycle returns a completed request's iterations, and the slice that
// held them, to the model's free list. It is safe to call from any
// goroutine. The caller must guarantee nothing retains the iterations or
// their internal slices — in this repo every consumer (the store's
// AddIteration, the trajectory cursor, the policies) copies what it
// keeps.
func (t *Tracer) Recycle(its []*Iteration) {
	f := &t.m.free
	f.mu.Lock()
	f.its = append(f.its, its...)
	if cap(its) > 0 {
		f.slices = append(f.slices, its[:0])
	}
	f.mu.Unlock()
}

// Package moe models Mixture-of-Experts LLMs for the FineMoE simulator:
// architectural configurations (layer/expert/parameter counts matching the
// paper's Table 1) and a generative gate-network simulator that reproduces
// the statistical routing behaviour the paper measures — balanced marginal
// expert usage, peaked per-iteration distributions, request-level blurring,
// and semantic-similarity-correlated expert overlap.
package moe

// Config describes an MoE model's architecture and the statistical knobs of
// its simulated gate network. The three constructors Mixtral8x7B, Qwen15MoE
// and Phi35MoE reproduce the parameter accounting of the paper's Table 1.
type Config struct {
	// Name identifies the model in reports (e.g. "Mixtral-8x7B").
	Name string
	// Layers is the number of MoE Transformer blocks (L in the paper).
	Layers int
	// RoutedExperts is the number of offloadable experts per layer (J).
	RoutedExperts int
	// TopK is the number of routed experts activated per token per layer.
	TopK int
	// SharedExperts counts always-on experts per layer (Qwen-style). They
	// are pinned in GPU memory and excluded from offloading, per the
	// paper's §3.3 footnote.
	SharedExperts int

	// HiddenSize is the model's true hidden dimension, used only for
	// parameter/byte accounting.
	HiddenSize int
	// ExpertIntermediate is the FFN intermediate size of one routed expert.
	ExpertIntermediate int
	// SharedIntermediate is the FFN intermediate size of the shared-expert
	// block (0 when there are no shared experts).
	SharedIntermediate int
	// DenseParams counts all non-expert parameters (embeddings, attention,
	// norms, LM head).
	DenseParams int64
	// BytesPerParam is the serving precision (2 for fp16).
	BytesPerParam int64

	// SemDim is the dimensionality of the simulated semantic space. The
	// paper's Fig. 18 memory accounting uses the stored embedding size;
	// 64 reproduces its footprint curve.
	SemDim int

	// InvTemp (τ) controls how peaked per-iteration gate distributions
	// are; higher values lower the fine-grained entropy of Fig. 3b.
	InvTemp float64
	// LayerDrift (σ_d) is the per-layer deterministic drift magnitude of
	// the hidden-state walk. It governs how fast speculation accuracy
	// decays with prefetch distance (Fig. 4).
	LayerDrift float64
	// PromptNoise (σ_p) is per-prompt, per-layer noise that is stable
	// across iterations; it bounds how well another prompt's expert map
	// can predict this prompt.
	PromptNoise float64
	// IterLayerNoise (σ_q) is per-iteration per-layer jitter.
	IterLayerNoise float64
	// IterAnchor (κ) pulls the iteration state back toward the prompt
	// embedding each decode step (conversations stay on topic).
	IterAnchor float64
	// IterNoise (λ) is the per-iteration token drift that blurs
	// request-level aggregates (Fig. 3c).
	IterNoise float64
	// PathShare is the fraction of the iteration drift that follows the
	// topic-shared conversation path (a deterministic function of the
	// prompt embedding) versus prompt-unique token noise. High values
	// make iteration-level patterns searchable across same-topic
	// requests while their aggregates still spread (the paper's central
	// premise: fine-grained patterns predictable, coarse-grained blurred).
	PathShare float64
	// PrefillTokenNoise spreads prompt tokens around the prompt embedding
	// during the prefill iteration; it controls the per-layer expert union
	// size of prefill.
	PrefillTokenNoise float64
	// SemObsNoise perturbs the semantic embedding the system observes
	// (embedding-layer output) relative to the true latent state.
	SemObsNoise float64

	// OptimalPrefetchDistance is the paper-profiled prefetch distance d
	// (§6.1/§6.7: 3 for Mixtral, 6 for Qwen, 4 for Phi).
	OptimalPrefetchDistance int
}

// defaultStatKnobs fills the simulation knobs shared by the three paper
// models. Individual constructors override where the paper's profiling
// (e.g. optimal prefetch distance) demands different dynamics.
func defaultStatKnobs(c *Config) {
	c.SemDim = 64
	// Gate logits are dots of random unit vectors (std ~ 1/sqrt(SemDim)),
	// so the inverse temperature is calibrated to SemDim=64: logit std
	// τ/8 ≈ 6 gives peaked per-iteration distributions whose entropy sits
	// well below uniform (Fig. 3b) without collapsing to a point mass.
	c.InvTemp = 48.0
	c.LayerDrift = 0.16
	c.PromptNoise = 0.012
	c.IterLayerNoise = 0.01
	c.IterAnchor = 0.02
	c.IterNoise = 0.28
	c.PathShare = 0.92
	c.PrefillTokenNoise = 0.45
	c.SemObsNoise = 0.02
	c.BytesPerParam = 2
}

// Mixtral8x7B returns the configuration for Mixtral-8x7B: 32 layers, 8
// experts per layer, top-2 routing, 12.9B/46.7B active/total parameters.
func Mixtral8x7B() Config {
	c := Config{
		Name:               "Mixtral-8x7B",
		Layers:             32,
		RoutedExperts:      8,
		TopK:               2,
		SharedExperts:      0,
		HiddenSize:         4096,
		ExpertIntermediate: 14336,
		DenseParams:        1_600_000_000,
	}
	defaultStatKnobs(&c)
	// Mixtral's hidden walk drifts fastest, which is why the paper
	// profiles its optimal prefetch distance at only 3 layers.
	c.LayerDrift = 0.45
	c.OptimalPrefetchDistance = 3
	return c
}

// Qwen15MoE returns the configuration for Qwen1.5-MoE-A2.7B: 24 layers, 60
// routed experts (top-4) plus 4 always-on shared experts, 2.7B/14.3B
// active/total parameters.
func Qwen15MoE() Config {
	c := Config{
		Name:               "Qwen1.5-MoE",
		Layers:             24,
		RoutedExperts:      60,
		TopK:               4,
		SharedExperts:      4,
		HiddenSize:         2048,
		ExpertIntermediate: 1408,
		SharedIntermediate: 5632,
		DenseParams:        1_000_000_000,
	}
	defaultStatKnobs(&c)
	// Qwen's gentler per-layer drift keeps speculation useful further
	// ahead, matching the paper's profiled distance of 6.
	c.LayerDrift = 0.30
	c.OptimalPrefetchDistance = 6
	return c
}

// Phi35MoE returns the configuration for Phi-3.5-MoE: 32 layers, 16 experts
// per layer, top-2 routing, 6.6B/42B active/total parameters.
func Phi35MoE() Config {
	c := Config{
		Name:               "Phi-3.5-MoE",
		Layers:             32,
		RoutedExperts:      16,
		TopK:               2,
		SharedExperts:      0,
		HiddenSize:         4096,
		ExpertIntermediate: 6400,
		DenseParams:        1_700_000_000,
	}
	defaultStatKnobs(&c)
	c.LayerDrift = 0.38
	c.OptimalPrefetchDistance = 4
	return c
}

// Tiny returns a small configuration used by unit tests: fast to simulate
// yet structurally identical to the real models.
func Tiny() Config {
	c := Config{
		Name:               "Tiny-MoE",
		Layers:             4,
		RoutedExperts:      6,
		TopK:               2,
		SharedExperts:      0,
		HiddenSize:         64,
		ExpertIntermediate: 128,
		DenseParams:        1_000_000,
	}
	defaultStatKnobs(&c)
	c.SemDim = 16
	c.OptimalPrefetchDistance = 2
	return c
}

// PaperModels returns the three MoE models evaluated throughout the paper,
// in the order they appear in Table 1.
func PaperModels() []Config {
	return []Config{Mixtral8x7B(), Qwen15MoE(), Phi35MoE()}
}

// ExpertParams returns the parameter count of one routed expert
// (gate/up/down projections of a SwiGLU FFN).
func (c Config) ExpertParams() int64 {
	return 3 * int64(c.HiddenSize) * int64(c.ExpertIntermediate)
}

// ExpertBytes returns the serving-precision byte size of one routed expert,
// i.e. the unit of transfer for offloading decisions.
func (c Config) ExpertBytes() int64 {
	return c.ExpertParams() * c.BytesPerParam
}

// SharedExpertParams returns the per-layer parameter count of the always-on
// shared-expert block (0 when the model has none).
func (c Config) SharedExpertParams() int64 {
	if c.SharedExperts == 0 {
		return 0
	}
	return 3 * int64(c.HiddenSize) * int64(c.SharedIntermediate)
}

// TotalExpertParams returns the parameter count of all routed experts.
func (c Config) TotalExpertParams() int64 {
	return int64(c.Layers) * int64(c.RoutedExperts) * c.ExpertParams()
}

// TotalParams returns the model's total parameter count.
func (c Config) TotalParams() int64 {
	return c.DenseParams + c.TotalExpertParams() + int64(c.Layers)*c.SharedExpertParams()
}

// ActiveParams returns the parameters touched per token: dense weights,
// shared experts, and TopK routed experts per layer.
func (c Config) ActiveParams() int64 {
	return c.DenseParams + int64(c.Layers)*c.SharedExpertParams() +
		int64(c.Layers)*int64(c.TopK)*c.ExpertParams()
}

// InactiveParams returns TotalParams minus ActiveParams — the memory the
// paper identifies as wasted by no-offload serving (§2.2).
func (c Config) InactiveParams() int64 { return c.TotalParams() - c.ActiveParams() }

// DenseBytes returns the byte size of the non-offloadable portion (dense
// weights plus pinned shared experts).
func (c Config) DenseBytes() int64 {
	return (c.DenseParams + int64(c.Layers)*c.SharedExpertParams()) * c.BytesPerParam
}

// TotalExpertBytes returns the byte size of all offloadable expert weights.
func (c Config) TotalExpertBytes() int64 {
	return c.TotalExpertParams() * c.BytesPerParam
}

// NumExperts returns the total number of offloadable experts (L·J).
func (c Config) NumExperts() int { return c.Layers * c.RoutedExperts }

// ExpertRef addresses one offloadable expert: layer index and expert index
// within the layer.
type ExpertRef struct {
	Layer, Expert int
}

// ExpertID flattens a (layer, expert) pair into a dense identifier in
// [0, NumExperts). Pointer receiver: these run on cache-lookup and
// eviction-scoring hot paths where a value receiver would copy the whole
// Config per call.
func (c *Config) ExpertID(layer, expert int) int { return layer*c.RoutedExperts + expert }

// RefID flattens an ExpertRef.
func (c *Config) RefID(ref ExpertRef) int { return c.ExpertID(ref.Layer, ref.Expert) }

// OwnerGPU returns the device that holds ref under round-robin expert
// placement over gpus devices: its flattened ID mod the device count.
// The per-device expert caches (cache.Set) and host links
// (memsim.Cluster) both shard by this one rule.
func (c *Config) OwnerGPU(ref ExpertRef, gpus int) int { return c.RefID(ref) % gpus }

// ExpertLoc inverts ExpertID.
func (c *Config) ExpertLoc(id int) (layer, expert int) {
	return id / c.RoutedExperts, id % c.RoutedExperts
}

// MapFloats returns the number of float32 values stored per expert map
// (L·J trajectory entries plus the semantic embedding), the quantity behind
// the paper's Fig. 18 memory accounting.
func (c Config) MapFloats() int { return c.Layers*c.RoutedExperts + c.SemDim }

// MapBytes returns the CPU-memory footprint of one stored expert map.
func (c Config) MapBytes() int64 { return int64(c.MapFloats()) * 4 }

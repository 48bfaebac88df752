// Package finemoe is a research-grade reproduction of "Taming
// Latency-Memory Trade-Off in MoE-Based LLM Serving via Fine-Grained Expert
// Offloading" (FineMoE, EuroSys '26).
//
// The package exposes the system's public surface:
//
//   - MoE model configurations matching the paper's Table 1 and a
//     statistically calibrated gate-network simulator (the substitute for a
//     GPU inference stack — see DESIGN.md for the substitution argument);
//   - the FineMoE policy: expert maps, the Expert Map Store with
//     redundancy-scored deduplication, semantic+trajectory search through
//     a centroid-clustered index (exact probe-all mode is byte-identical
//     to a brute-force scan; FineMoEOptions.SearchNProbe opts into
//     approximate search — see the searchfig experiment),
//     similarity-aware δ-threshold prefetching, and priority-driven
//     caching/eviction;
//   - the four baselines the paper compares against (DeepSpeed-Inference,
//     Mixtral-Offloading, ProMoE, MoE-Infinity) plus No-Offload;
//   - a virtual-time serving engine over a simulated multi-GPU cluster with
//     offline and online (trace-driven) runners, plus a steppable
//     event-driven surface (Submit / NextEventTime / Step / Drain) for
//     external orchestration;
//   - a tiered host-memory hierarchy under the engine: a per-expert
//     residency state machine over GPU HBM -> bounded CPU DRAM -> NVMe,
//     with staging transfers routed through intermediate tiers on distinct
//     contended links, eviction-as-demotion under pluggable per-tier
//     scorers, and a memory-pressure signal feeding the cluster's routing
//     (the degenerate two-tier configuration reproduces the pre-tiering
//     engine byte-identically — see the memfig experiment for the
//     latency-memory curve);
//   - a cluster serving layer composing N engines behind an admission →
//     routing → instance pipeline: pluggable admission (always-admit,
//     token-bucket, reject-all) and routing (round-robin, least-loaded,
//     FineMoE-aware semantic-affinity) policies under one shared virtual
//     clock, with queue-pressure autoscaling (grow fresh cold-store
//     instances under sustained load, drain-then-retire idle ones) and
//     fleet-wide metric aggregation;
//   - workload generators standing in for LMSYS-Chat-1M, ShareGPT and the
//     Azure inference traces;
//   - the experiment harness reproducing every table and figure of the
//     paper's evaluation (§6).
//
// Quick start:
//
//	cfg := finemoe.Mixtral8x7B()
//	model := finemoe.NewModel(cfg, 42)
//	ds := finemoe.LMSYSChat1M()
//	reqs := ds.Sample(finemoe.WorkloadOptions{Dim: cfg.SemDim, N: 96, Seed: 1, FixedLengths: true})
//	storeReqs, testReqs := finemoe.SplitRequests(reqs, 0.7)
//
//	store := finemoe.BuildStoreFromRequests(model, storeReqs, 1000)
//	pol := finemoe.NewFineMoE(store, finemoe.FineMoEOptions{})
//	eng := finemoe.NewEngine(finemoe.EngineOptions{
//		Model: model, GPU: finemoe.RTX3090(), NumGPUs: 6, Policy: pol,
//	})
//	res := eng.RunOffline(testReqs, nil)
//	fmt.Printf("TTFT %.0f ms, TPOT %.0f ms, hit rate %.3f\n",
//		res.MeanTTFT, res.MeanTPOT, res.HitRate)
//
// Cluster serving (see examples/cluster for the full walkthrough):
//
//	engines := make([]*finemoe.Engine, 4)
//	for i := range engines {
//		pol := finemoe.NewFineMoE(finemoe.NewStore(cfg, 1000, 0), finemoe.FineMoEOptions{})
//		engines[i] = finemoe.NewEngine(finemoe.EngineOptions{
//			Model: model, GPU: finemoe.RTX3090(), NumGPUs: 6, Policy: pol,
//		})
//	}
//	cl := finemoe.NewCluster(finemoe.ClusterOptions{
//		Engines:   engines,
//		Admission: finemoe.NewTokenBucket(32, 8),
//		Router:    finemoe.NewSemanticAffinity(finemoe.SemanticAffinityOptions{}),
//	})
//	cres := cl.RunTrace(finemoe.AzureTrace(ds, cfg.SemDim, finemoe.TraceConfig{RatePerSec: 2.91, N: 256, Seed: 1}))
//	fmt.Println(cres)
package finemoe

import (
	"finemoe/internal/baselines"
	"finemoe/internal/cache"
	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/experiments"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/scenarios"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// --- Models -----------------------------------------------------------------

// ModelConfig describes an MoE model architecture and its simulated gate
// statistics.
type ModelConfig = moe.Config

// Model is a simulated MoE gate network.
type Model = moe.Model

// Iteration is the observable outcome of one inference iteration.
type Iteration = moe.Iteration

// ExpertRef addresses one offloadable expert (layer, index).
type ExpertRef = moe.ExpertRef

// Mixtral8x7B returns the Mixtral-8x7B configuration (Table 1).
func Mixtral8x7B() ModelConfig { return moe.Mixtral8x7B() }

// Qwen15MoE returns the Qwen1.5-MoE-A2.7B configuration (Table 1).
func Qwen15MoE() ModelConfig { return moe.Qwen15MoE() }

// Phi35MoE returns the Phi-3.5-MoE configuration (Table 1).
func Phi35MoE() ModelConfig { return moe.Phi35MoE() }

// TinyModel returns a small configuration for tests and demos.
func TinyModel() ModelConfig { return moe.Tiny() }

// PaperModels returns the three models of the paper's evaluation.
func PaperModels() []ModelConfig { return moe.PaperModels() }

// NewModel builds a deterministic simulated gate network.
func NewModel(cfg ModelConfig, seed uint64) *Model { return moe.NewModel(cfg, seed) }

// --- Workloads ----------------------------------------------------------------

// Dataset is a synthetic prompt population.
type Dataset = workload.Dataset

// Request is one serving request.
type Request = workload.Request

// WorkloadOptions controls request sampling.
type WorkloadOptions = workload.Options

// TraceConfig parameterizes an online arrival trace.
type TraceConfig = workload.TraceConfig

// LMSYSChat1M returns the synthetic LMSYS-Chat-1M stand-in.
func LMSYSChat1M() Dataset { return workload.LMSYSChat1M() }

// ShareGPT returns the synthetic ShareGPT stand-in.
func ShareGPT() Dataset { return workload.ShareGPT() }

// SplitRequests partitions requests store-building/test by fraction (the
// paper's 70/30 protocol).
func SplitRequests(reqs []Request, storeFrac float64) (store, test []Request) {
	return workload.Split(reqs, storeFrac)
}

// AzureTrace samples an online trace with Poisson arrivals.
func AzureTrace(d Dataset, dim int, tc TraceConfig) []Request {
	return workload.AzureTrace(d, dim, tc)
}

// ArrivalProcess generates an online trace's arrival timeline; PoissonArrivals,
// MMPPArrivals, DiurnalArrivals and FlashCrowdArrivals implement it.
type ArrivalProcess = workload.ArrivalProcess

// ArrivalStream is an arrival timeline being generated: what an
// ArrivalProcess's Stream returns.
type ArrivalStream = workload.ArrivalStream

// PoissonArrivals is the constant-rate memoryless process (the paper's §6.3).
type PoissonArrivals = workload.Poisson

// MMPPArrivals is the two-state bursty Markov-modulated Poisson process.
type MMPPArrivals = workload.MMPP

// DiurnalArrivals is the sinusoidally rate-modulated process.
type DiurnalArrivals = workload.Diurnal

// FlashCrowdArrivals is the step-spike-with-decay process.
type FlashCrowdArrivals = workload.FlashCrowd

// BurstyMMPP returns the bursty preset with mean rate ratePerSec.
func BurstyMMPP(ratePerSec float64) MMPPArrivals { return workload.BurstyMMPP(ratePerSec) }

// DiurnalSwing returns the diurnal preset with mean rate ratePerSec.
func DiurnalSwing(ratePerSec float64) DiurnalArrivals { return workload.DiurnalSwing(ratePerSec) }

// FlashSpike returns the flash-crowd preset with background rate ratePerSec.
func FlashSpike(ratePerSec float64) FlashCrowdArrivals { return workload.FlashSpike(ratePerSec) }

// OnlineTraceOptions parameterizes trace generation over any arrival process.
type OnlineTraceOptions = workload.OnlineOptions

// OnlineTrace samples an online trace on the configured arrival process.
func OnlineTrace(d Dataset, dim int, opt OnlineTraceOptions) []Request {
	return workload.OnlineTrace(d, dim, opt)
}

// SessionConfig shapes closed-loop multi-turn session workloads.
type SessionConfig = workload.SessionConfig

// Sessions generates multi-turn session workloads: opening turns on an
// arrival process, semantically close follow-ups after each completion
// (drive them through ClusterOptions.FollowUp).
type Sessions = workload.Sessions

// NewSessions builds a session generator over a dataset.
func NewSessions(d Dataset, dim int, cfg SessionConfig, seed uint64) *Sessions {
	return workload.NewSessions(d, dim, cfg, seed)
}

// TenantSpec describes one tenant of a multi-tenant trace mix.
type TenantSpec = workload.TenantSpec

// MultiTenantTrace merges per-tenant traces into one arrival-ordered stream.
func MultiTenantTrace(dim int, seed uint64, tenants []TenantSpec) []Request {
	return workload.MultiTenantTrace(dim, seed, tenants)
}

// --- Hardware -----------------------------------------------------------------

// GPUSpec describes a simulated device.
type GPUSpec = memsim.GPUSpec

// RTX3090 returns the paper's six-GPU testbed device.
func RTX3090() GPUSpec { return memsim.RTX3090() }

// A100 returns the §6.5 high-end device.
func A100() GPUSpec { return memsim.A100() }

// --- Tiered memory hierarchy --------------------------------------------------

// MemoryTierSpec describes one host-side memory tier: capacity plus the
// bandwidth and fixed per-copy latency of the staging link that feeds
// the tier above it.
type MemoryTierSpec = memsim.TierSpec

// MemoryHierarchy is the ordered host-side tier list below the GPU
// expert cache (DRAM first, slower tiers after). Pass it through
// EngineOptions.Memory; the zero value is the degenerate two-tier
// configuration, byte-identical to the pre-tiering engine.
type MemoryHierarchy = memsim.Hierarchy

// TwoTierMemory returns the degenerate hierarchy: unbounded DRAM, no
// staging tiers (the seed's memory model).
func TwoTierMemory() MemoryHierarchy { return memsim.TwoTier() }

// ThreeTierMemory bounds host DRAM at dramBytes and backs it with an
// unbounded NVMe tier behind a shared staging link: experts beyond the
// DRAM budget pay NVMe->DRAM->HBM routing on distinct contended links.
func ThreeTierMemory(dramBytes int64) MemoryHierarchy { return memsim.ThreeTier(dramBytes) }

// TierStat reports one memory tier's residency and transfer activity in
// a Result (topmost tier — the GPU expert cache — first).
type TierStat = serve.TierStat

// CacheScorer ranks cache/tier residents for eviction and demotion; the
// highest score goes first. LRUScorer and LFUScorer are the classic
// policies; FineMoE's own similarity-aware priority is used when
// EngineOptions.HostScorer is nil.
type CacheScorer = cache.Scorer

// LRUScorer evicts the least-recently-used expert.
type LRUScorer = cache.LRU

// LFUScorer evicts the least-frequently-used expert (use-rate aged).
type LFUScorer = cache.LFU

// --- FineMoE core ---------------------------------------------------------------

// ExpertMap records one iteration's gate distributions plus its semantic
// embedding (§4.1).
type ExpertMap = core.ExpertMap

// Store is the Expert Map Store (§4.4).
type Store = core.Store

// FineMoEOptions configures the FineMoE policy.
type FineMoEOptions = core.Options

// FineMoE is the paper's fine-grained expert offloading policy.
type FineMoE = core.FineMoE

// NewStore builds an empty Expert Map Store (capacity <= 0 uses the paper's
// 1K default).
func NewStore(cfg ModelConfig, capacity, prefetchDistance int) *Store {
	return core.NewStore(cfg, capacity, prefetchDistance)
}

// BuildStoreFromRequests populates a store by simulating the given requests
// (the offline 70% split). The prefetch distance defaults to the model's
// profiled optimum.
func BuildStoreFromRequests(m *Model, reqs []Request, capacity int) *Store {
	traces := make(map[uint64][]*Iteration, len(reqs))
	for _, q := range reqs {
		traces[q.ID] = m.Trace(q.PromptSpec)
	}
	return core.BuildStore(m.Cfg, capacity, m.Cfg.OptimalPrefetchDistance, traces)
}

// NewFineMoE builds the FineMoE policy around a store.
func NewFineMoE(store *Store, opts FineMoEOptions) *FineMoE {
	return core.NewFineMoE(store, opts)
}

// Searcher performs semantic and trajectory expert-map search (§4.2)
// through the store's centroid-clustered index. The default probe-all
// mode returns byte-identical results to a brute-force linear scan;
// Searcher.SetNProbe (or FineMoEOptions.SearchNProbe) opts into
// approximate search over the top-n query-similar clusters.
type Searcher = core.Searcher

// SearchQuery is a prepared (pooled) search query: one float32 conversion
// of an embedding serves both Searcher.SemanticSearchQ and
// Searcher.NewCursorQ; Release recycles it.
type SearchQuery = core.Query

// SearchResult is a searched map with its similarity score.
type SearchResult = core.SearchResult

// NewSearcher builds a searcher over a store; prefilter bounds trajectory
// candidates to the semantic top-N (<=0 searches the full store).
func NewSearcher(store *Store, prefilter int) *Searcher {
	return core.NewSearcher(store, prefilter)
}

// --- Baselines ------------------------------------------------------------------

// Policy is the engine-facing offloading policy interface.
type Policy = policy.Policy

// NewDeepSpeed returns the DeepSpeed-Inference baseline (§6.1).
func NewDeepSpeed() Policy { return baselines.NewDeepSpeed() }

// NewMixtralOffload returns the Mixtral-Offloading baseline (§6.1).
func NewMixtralOffload(m *Model) Policy { return baselines.NewMixtralOffload(m) }

// NewProMoE returns the ProMoE baseline (§6.1).
func NewProMoE(m *Model) Policy { return baselines.NewProMoE(m) }

// NewMoEInfinity returns the MoE-Infinity baseline with an empty matrix
// collection (§6.1).
func NewMoEInfinity(cfg ModelConfig) Policy {
	return baselines.NewMoEInfinity(baselines.NewEAMCollection(cfg))
}

// NewNoOffload returns the no-offloading upper bound (pair with
// EngineOptions.PreloadAll).
func NewNoOffload() Policy { return baselines.NewNoOffload() }

// --- Serving engine --------------------------------------------------------------

// EngineOptions configures a serving run.
type EngineOptions = serve.Options

// Engine executes serving runs on the simulated cluster.
type Engine = serve.Engine

// Result aggregates a serving run's metrics.
type Result = serve.Result

// RequestMetrics records one served request.
type RequestMetrics = serve.RequestMetrics

// NewEngine builds an engine; construct a fresh engine (and policy) per run.
// Beyond RunOffline/RunOnline, the engine exposes the steppable surface
// (Submit, NextEventTime, Step, Drain, Finalize) that Cluster orchestrates.
func NewEngine(opts EngineOptions) *Engine { return serve.New(opts) }

// --- Cluster serving --------------------------------------------------------

// Cluster orchestrates N serving engines behind the admission → routing →
// instance → aggregation pipeline under one shared virtual clock. Build
// it with NewCluster and run it once, with RunTrace or RunStream.
type Cluster = cluster.Cluster

// ClusterOptions assembles a cluster: per-instance engines plus admission
// and routing policies.
type ClusterOptions = cluster.Options

// ClusterResult aggregates a cluster run: per-instance results, admission
// accounting, and fleet-wide latency/hit-rate summaries.
type ClusterResult = cluster.Result

// InstanceResult is one replica's aggregated run within a ClusterResult.
type InstanceResult = cluster.InstanceResult

// InstanceState is the admission/routing-visible load view of an instance.
type InstanceState = cluster.InstanceState

// Admission gates arrivals into the fleet.
type Admission = cluster.Admission

// Router places admitted requests onto instances.
type Router = cluster.Router

// SemanticAffinityOptions tunes the FineMoE-aware affinity router.
type SemanticAffinityOptions = cluster.SemanticAffinityOptions

// Autoscaler resizes the fleet under the shared-clock loop: it observes
// the routable instances at fixed virtual-time intervals and may grow
// the fleet (via ClusterOptions.EngineFactory) or drain-then-retire an
// instance.
type Autoscaler = cluster.Autoscaler

// ScaleDecision is an autoscaler's verdict for one tick.
type ScaleDecision = cluster.Decision

// AutoscalerFeedback is an optional Autoscaler extension: orchestrators
// report whether a non-hold decision was applied or refused at the
// fleet-size bounds, so pacing state charges only for applied resizes.
type AutoscalerFeedback = cluster.DecisionFeedback

// Autoscaler verdicts.
const (
	ScaleHold   ScaleDecision = cluster.Hold
	ScaleGrow   ScaleDecision = cluster.Grow
	ScaleShrink ScaleDecision = cluster.Shrink
)

// ScaleEvent records one autoscaler-driven fleet resize in a
// ClusterResult.
type ScaleEvent = cluster.ScaleEvent

// QueuePressureOptions tunes the hysteresis-banded queue-pressure
// autoscaler.
type QueuePressureOptions = cluster.QueuePressureOptions

// NewQueuePressure returns the queue-pressure autoscaler: grow when mean
// queued+in-flight per instance stays above the high watermark, shrink
// when it stays below the low watermark, hold inside the band.
func NewQueuePressure(opts QueuePressureOptions) Autoscaler {
	return cluster.NewQueuePressure(opts)
}

// NewCluster builds a cluster over freshly constructed engines.
func NewCluster(opts ClusterOptions) *Cluster { return cluster.New(opts) }

// NewAlwaysAdmit returns the accept-everything admission policy.
func NewAlwaysAdmit() Admission { return cluster.NewAlwaysAdmit() }

// NewRejectAll returns the shed-everything admission policy.
func NewRejectAll() Admission { return cluster.NewRejectAll() }

// NewTokenBucket returns a token-bucket admission policy: capacity tokens,
// refilled at refillPerSec, one token per admitted request.
func NewTokenBucket(capacity, refillPerSec float64) Admission {
	return cluster.NewTokenBucket(capacity, refillPerSec)
}

// NewRoundRobin returns the round-robin router.
func NewRoundRobin() Router { return cluster.NewRoundRobin() }

// NewLeastLoaded returns the join-shortest-queue router.
func NewLeastLoaded() Router { return cluster.NewLeastLoaded() }

// NewMemoryAware returns the memory-pressure-aware router: shortest
// queue first, load ties broken toward the instance with the most host
// DRAM headroom (identical to least-loaded on a degenerate fleet).
func NewMemoryAware() Router { return cluster.NewMemoryAware() }

// NewSemanticAffinity returns the FineMoE-aware router: semantically
// similar prompts are routed to the instance whose Expert Map Store has
// already seen them, raising the fleet's expert hit rate.
func NewSemanticAffinity(opts SemanticAffinityOptions) Router {
	return cluster.NewSemanticAffinity(opts)
}

// --- Scenarios ---------------------------------------------------------------

// Scenario is one cell of the scenario gauntlet: a named workload shape ×
// fleet configuration pairing.
type Scenario = scenarios.Scenario

// ScenarioWorkload declares a scenario's traffic: arrival process,
// closed-loop sessions, or a multi-tenant mix.
type ScenarioWorkload = scenarios.WorkloadSpec

// ScenarioFleet declares a scenario's serving side by policy name.
type ScenarioFleet = scenarios.FleetSpec

// ScenarioOptions configures a ScenarioRunner's model and testbed.
type ScenarioOptions = scenarios.Options

// ScenarioRunner sweeps scenarios through the cluster pipeline.
type ScenarioRunner = scenarios.Runner

// ScenarioReport is one scenario's comparable, deterministically
// serializable outcome.
type ScenarioReport = scenarios.Report

// NewScenarioRunner builds a runner; every scenario it runs shares the
// same model and testbed, so reports are comparable. RunMatrix sweeps
// scenarios on a bounded worker pool (ScenarioOptions.Workers; 0 =
// GOMAXPROCS) with reports byte-identical to a serial sweep regardless of
// worker count.
func NewScenarioRunner(opts ScenarioOptions) *ScenarioRunner { return scenarios.NewRunner(opts) }

// --- Experiment harness ------------------------------------------------------------

// ExperimentScale sizes experiment workloads.
type ExperimentScale = experiments.Scale

// ExperimentOutput is a reproduced table/figure.
type ExperimentOutput = experiments.Output

// ExperimentEntry names a registered experiment.
type ExperimentEntry = experiments.Entry

// FullScale reproduces the paper's workload parameters.
func FullScale() ExperimentScale { return experiments.Full }

// SmallScale is a fast configuration for tests and demos.
func SmallScale() ExperimentScale { return experiments.Small }

// ListExperiments enumerates every reproducible table and figure.
func ListExperiments() []ExperimentEntry { return experiments.List() }

// RunExperiment executes one experiment by ID ("fig10", "tab1", ...).
func RunExperiment(scale ExperimentScale, seed uint64, id string) (*ExperimentOutput, error) {
	return experiments.Run(experiments.NewContext(scale, seed), id)
}

// RunExperiments executes several experiments sharing simulation state
// (models, gate traces, prototype stores), which is much cheaper than
// running them independently.
func RunExperiments(scale ExperimentScale, seed uint64, ids ...string) ([]*ExperimentOutput, error) {
	ctx := experiments.NewContext(scale, seed)
	out := make([]*ExperimentOutput, 0, len(ids))
	for _, id := range ids {
		o, err := experiments.Run(ctx, id)
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
	return out, nil
}

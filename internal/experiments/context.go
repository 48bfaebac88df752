// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) as a named, runnable experiment. Each experiment returns
// a structured Output with the paper-style rows; DESIGN.md §3 maps the IDs
// to paper artifacts and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"finemoe/internal/baselines"
	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/workload"
)

// Scale sizes the workloads. Full reproduces the paper's parameters; Small
// is used by unit tests and quick benchmark runs.
type Scale struct {
	Name string
	// StorePrompts build the Expert Map Store / EAM collection (the 70%
	// split); TestPrompts are served (the 30% split; paper samples 64).
	StorePrompts, TestPrompts int
	// StoreCapacity is the Expert Map Store size (paper default 1K).
	StoreCapacity int
	// MaxInput/MaxOutput clamp token counts (0 = dataset defaults).
	MaxInput, MaxOutput int
	// OnlineRequests/OnlineRate parameterize the Azure-style trace
	// (paper: 256 requests at 2.91 req/s).
	OnlineRequests int
	OnlineRate     float64
	// MotivPrompts sizes the analysis-only experiments (entropy,
	// similarity statistics).
	MotivPrompts int
	// Topics overrides each dataset's topic count (0 = dataset default).
	// Small scales shrink the population so the reduced store-building
	// split still covers the semantic space, as a 70% split of a large
	// corpus does at full scale.
	Topics int
}

// Full is the paper-scale configuration.
var Full = Scale{
	Name:         "full",
	StorePrompts: 96, TestPrompts: 64,
	StoreCapacity:  1000,
	OnlineRequests: 256, OnlineRate: 2.91,
	MotivPrompts: 32,
}

// Small is the fast configuration for tests and -short benchmarks.
var Small = Scale{
	Name:         "small",
	StorePrompts: 20, TestPrompts: 8,
	StoreCapacity: 250,
	MaxInput:      12, MaxOutput: 20,
	OnlineRequests: 24, OnlineRate: 8,
	MotivPrompts: 8,
	Topics:       8,
}

// Context carries the shared, memoized simulation state: models, gate
// traces, and prototype stores. Traces and stores are computed once per
// (model, dataset, role) and shared across experiments and policies, since
// gate behaviour does not depend on the serving policy.
type Context struct {
	Seed  uint64
	Scale Scale
	// GPU/NumGPUs define the default testbed (paper: 6× RTX 3090).
	GPU     memsim.GPUSpec
	NumGPUs int
	// Workers bounds the cluster-sweep experiments' run-level parallelism
	// (scenariofig's matrix, clusterfig's and autoscalefig's load × fleet
	// grids): 0 uses GOMAXPROCS, 1 forces serial. Tables are
	// byte-identical regardless of the value — runs are independent and
	// rows are emitted in sweep order.
	Workers int

	mu     sync.Mutex
	models map[string]*moe.Model
	reqs   map[string][]workload.Request
	traces map[string]map[uint64][]*moe.Iteration
	stores map[string]*core.Store
	eams   map[string]*baselines.EAMCollection
}

// NewContext builds a context with the paper's default testbed.
func NewContext(scale Scale, seed uint64) *Context {
	return &Context{
		Seed:    seed,
		Scale:   scale,
		GPU:     memsim.RTX3090(),
		NumGPUs: 6,
		models:  map[string]*moe.Model{},
		reqs:    map[string][]workload.Request{},
		traces:  map[string]map[uint64][]*moe.Iteration{},
		stores:  map[string]*core.Store{},
		eams:    map[string]*baselines.EAMCollection{},
	}
}

// Model returns the memoized simulated model for cfg.
func (c *Context) Model(cfg moe.Config) *moe.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[cfg.Name]; ok {
		return m
	}
	m := moe.NewModel(cfg, c.Seed)
	c.models[cfg.Name] = m
	return m
}

// clampLens applies the scale's token clamps.
func (c *Context) clampLens(reqs []workload.Request) []workload.Request {
	for i := range reqs {
		if c.Scale.MaxInput > 0 && reqs[i].InputTokens > c.Scale.MaxInput {
			reqs[i].InputTokens = c.Scale.MaxInput
		}
		if c.Scale.MaxOutput > 0 && reqs[i].OutputTokens > c.Scale.MaxOutput {
			reqs[i].OutputTokens = c.Scale.MaxOutput
		}
	}
	return reqs
}

// dataset applies the scale's population overrides.
func (c *Context) dataset(ds workload.Dataset) workload.Dataset {
	if c.Scale.Topics > 0 {
		ds.Topics = c.Scale.Topics
	}
	return ds
}

// OfflineSplit returns the store-building and test request sets for a
// model/dataset pair, with the paper's fixed mean lengths (§6.2).
func (c *Context) OfflineSplit(cfg moe.Config, ds workload.Dataset) (storeReqs, testReqs []workload.Request) {
	ds = c.dataset(ds)
	key := fmt.Sprintf("off/%s/%s", cfg.Name, ds.Name)
	c.mu.Lock()
	cached, ok := c.reqs[key]
	c.mu.Unlock()
	if !ok {
		n := c.Scale.StorePrompts + c.Scale.TestPrompts
		cached = c.clampLens(ds.Sample(workload.Options{
			Dim: cfg.SemDim, N: n, Seed: c.Seed, FixedLengths: true,
		}))
		c.mu.Lock()
		c.reqs[key] = cached
		c.mu.Unlock()
	}
	return cached[:c.Scale.StorePrompts], cached[c.Scale.StorePrompts:]
}

// OnlineTrace returns the Azure-style online trace for a model/dataset.
func (c *Context) OnlineTrace(cfg moe.Config, ds workload.Dataset) []workload.Request {
	ds = c.dataset(ds)
	key := fmt.Sprintf("on/%s/%s", cfg.Name, ds.Name)
	c.mu.Lock()
	cached, ok := c.reqs[key]
	c.mu.Unlock()
	if !ok {
		cached = c.clampLens(workload.AzureTrace(ds, cfg.SemDim, workload.TraceConfig{
			RatePerSec: c.Scale.OnlineRate, N: c.Scale.OnlineRequests, Seed: c.Seed,
		}))
		c.mu.Lock()
		c.reqs[key] = cached
		c.mu.Unlock()
	}
	return cached
}

// Traces returns memoized gate traces for a request set.
func (c *Context) Traces(cfg moe.Config, key string, reqs []workload.Request) map[uint64][]*moe.Iteration {
	full := fmt.Sprintf("tr/%s/%s", cfg.Name, key)
	c.mu.Lock()
	cached, ok := c.traces[full]
	c.mu.Unlock()
	if ok {
		return cached
	}
	m := c.Model(cfg)
	out := make(map[uint64][]*moe.Iteration, len(reqs))
	for _, q := range reqs {
		out[q.ID] = m.Trace(q.PromptSpec)
	}
	c.mu.Lock()
	c.traces[full] = out
	c.mu.Unlock()
	return out
}

// StoreProto returns the memoized prototype Expert Map Store built from the
// offline store split; callers must Clone before mutating.
func (c *Context) StoreProto(cfg moe.Config, ds workload.Dataset, d int) *core.Store {
	key := fmt.Sprintf("st/%s/%s/%d/%d", cfg.Name, ds.Name, c.Scale.StoreCapacity, d)
	c.mu.Lock()
	cached, ok := c.stores[key]
	c.mu.Unlock()
	if ok {
		return cached
	}
	storeReqs, _ := c.OfflineSplit(cfg, ds)
	traces := c.Traces(cfg, "store/"+ds.Name, storeReqs)
	s := core.BuildStore(cfg, c.Scale.StoreCapacity, d, traces)
	c.mu.Lock()
	c.stores[key] = s
	c.mu.Unlock()
	return s
}

// EAMProto returns the memoized prototype EAM collection (MoE-Infinity's
// pre-prepared activation matrices, §6.1); callers must Clone.
func (c *Context) EAMProto(cfg moe.Config, ds workload.Dataset) *baselines.EAMCollection {
	key := fmt.Sprintf("eam/%s/%s", cfg.Name, ds.Name)
	c.mu.Lock()
	cached, ok := c.eams[key]
	c.mu.Unlock()
	if ok {
		return cached
	}
	storeReqs, _ := c.OfflineSplit(cfg, ds)
	traces := c.Traces(cfg, "store/"+ds.Name, storeReqs)
	coll := baselines.BuildEAMCollection(cfg, traces)
	c.mu.Lock()
	c.eams[key] = coll
	c.mu.Unlock()
	return coll
}

// Output is an experiment's result: the paper-style table plus free-form
// notes (observations the figure caption would make).
type Output struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
	// Plots holds optional ASCII renderings of the figure's curves.
	Plots []string
}

// String renders the output for terminal display.
func (o *Output) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", o.ID, o.Title, o.Table.String())
	for _, p := range o.Plots {
		s += "\n" + p
	}
	for _, n := range o.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Runner executes one experiment.
type Runner func(c *Context) (*Output, error)

// Entry describes a registered experiment.
type Entry struct {
	ID, Title string
	Run       Runner
}

var registry = map[string]Entry{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Entry{ID: id, Title: title, Run: run}
}

// List returns all experiments sorted by ID.
func List() []Entry {
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Run executes the experiment with the given ID.
func Run(c *Context, id string) (*Output, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (use List)", id)
	}
	return e.Run(c)
}

// paperDatasets is shared by multi-dataset experiments.
func paperDatasets() []workload.Dataset { return workload.PaperDatasets() }

// paperModels is shared by multi-model experiments.
func paperModels() []moe.Config { return moe.PaperModels() }

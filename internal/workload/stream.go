// Streaming workload generation: every trace generator in the package is
// a Source. A materialized trace costs O(N) memory before the first
// request is served; at 10M-request horizons that is gigabytes of
// embeddings the cluster loop only ever touches front-to-back. A Source
// instead yields requests one at a time, in arrival order, from O(1)
// generator state. The materializing generators (OnlineTrace,
// MultiTenantTrace, Sessions.Initial) collect these sources into a slice
// sized to their known request count, so each shape has exactly one
// generator and the committed parity goldens pin its values.
//
// Embeddings are carved out of a shared Arena: blocks of arenaRows rows
// allocated together, each request's embedding a full-slice-capped row.
// Once the last request referencing a block completes and its bookkeeping
// is dropped, the block is collectible — so a streaming run's embedding
// footprint follows the in-flight window, not the horizon. (The issue
// sketch suggested float32 arena backing; rows stay float64 because every
// committed golden depends on float64 embedding bits end to end, and the
// arena's win is allocation count and lifetime, not element width.)
package workload

import (
	"fmt"

	"finemoe/internal/moe"
	"finemoe/internal/rng"
	"finemoe/internal/tensor"
)

// Source is the streaming form of a request trace: Next yields requests
// in non-decreasing ArrivalMS order until the stream is exhausted
// (ok=false, and forever after). The cluster's shared-clock loop needs
// only one request of lookahead — it peeks the next arrival time to
// schedule against instance events, then consumes the request — so any
// Source drives cluster.RunStream without materializing the horizon.
//
// RunStream may call Next from one helper goroutine, up to 8 requests
// ahead of the loop, to simulate gate traces there; all of a run's calls
// still come from one goroutine, in order. A Source must therefore not
// share unsynchronized mutable state with the run's hooks (FollowUp,
// routers, policies). Every Source in this package is self-contained.
type Source interface {
	Next() (Request, bool)
}

// SliceSource adapts a materialized trace to the Source interface, so
// every []Request path (file replays, hand-built tests) runs through the
// same streaming loop.
type SliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource wraps an arrival-sorted trace.
func NewSliceSource(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next implements Source.
//
//finemoe:hotpath
func (s *SliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	q := s.reqs[s.i]
	s.i++
	return q, true
}

// --- embedding arena --------------------------------------------------------

// arenaRows is the number of embedding rows per arena block.
const arenaRows = 1024

// Arena carves per-request embedding rows out of shared blocks. Rows are
// full-slice-capped at dim, so appending through one row can never
// clobber its neighbors; the arena itself retains only the current
// block's unused tail, so a block's lifetime is the lifetime of the
// requests whose embeddings live in it. Rows are never reused. Blocks
// are carved lazily, so an arena that hands out no row allocates none.
type Arena struct {
	dim, rows int
	free      []float64
}

// NewArena builds an arena of dim-length rows, arenaRows to a block.
func NewArena(dim int) *Arena { return newArena(dim, arenaRows) }

// newArena builds an arena of dim-length rows, rows to a block.
func newArena(dim, rows int) *Arena {
	if dim <= 0 {
		panic(fmt.Sprintf("workload: invalid arena dim %d", dim))
	}
	return &Arena{dim: dim, rows: rows}
}

// Row returns the next zeroed row, carving a fresh block only once per
// block's rows; steady-state rows are sub-slices.
func (a *Arena) Row() []float64 {
	if len(a.free) < a.dim {
		a.free = make([]float64, a.dim*a.rows)
	}
	row := a.free[:a.dim:a.dim]
	a.free = a.free[a.dim:]
	return row
}

// --- streaming trace generators ---------------------------------------------

// sampler draws dataset prompts one at a time, consuming its RNG in
// exactly the order Sample's materializing loop does (topic, unit noise,
// input length, output length — per request, sequentially), so a streamed
// prompt sequence is byte-identical to the sampled slice. Topic
// directions are deterministic per (dataset, topic), so they are cached
// rather than re-derived per request.
type sampler struct {
	d       Dataset
	dim     int
	fixed   bool
	r       rng.RNG
	noise   []float64
	dirs    [][]float64
	arena   *Arena
	optSeed uint64
}

func newSampler(d Dataset, opt Options) *sampler {
	return &sampler{
		d: d, dim: opt.Dim, fixed: opt.FixedLengths,
		r:       rng.Seeded(rng.Mix(d.Seed, opt.Seed, 0xD47A)),
		noise:   make([]float64, opt.Dim),
		dirs:    make([][]float64, d.Topics),
		arena:   NewArena(opt.Dim),
		optSeed: opt.Seed,
	}
}

// next draws the request with the given ID. The embedding is an arena row.
//
//finemoe:allocok derives each topic direction once and amortizes embedding storage through the arena
func (s *sampler) next(id uint64) Request {
	topic := s.d.sampleTopic(&s.r)
	dir := s.dirs[topic]
	if dir == nil {
		dir = s.d.TopicDirection(s.dim, topic)
		s.dirs[topic] = dir
	}
	emb := s.arena.Row()
	copy(emb, dir)
	s.r.UnitVec(s.noise)
	tensor.Axpy(s.d.TopicSpread, s.noise, emb)
	tensor.Normalize(emb)

	in, out := s.d.MeanInput, s.d.MeanOutput
	if !s.fixed {
		in = sampleLen(&s.r, s.d.MeanInput, s.d.LenSigma, 4, 2048)
		out = sampleLen(&s.r, s.d.MeanOutput, s.d.LenSigma, 2, 1024)
	}
	return Request{
		PromptSpec: moe.PromptSpec{
			ID:           id,
			Embedding:    emb,
			InputTokens:  in,
			OutputTokens: out,
			Seed:         rng.Mix(s.d.Seed, s.optSeed, 0x9E4D, id),
		},
		Topic:   topic,
		Dataset: s.d.Name,
	}
}

// StreamOnline generates an online trace: dataset prompts with arrival
// times drawn from the configured process and sampled token lengths. The
// prompt and arrival RNG streams are independently seeded, so drawing
// them interleaved per request preserves each one's draw order.
func StreamOnline(d Dataset, dim int, opt OnlineOptions) Source {
	if opt.Arrivals == nil {
		panic("workload: StreamOnline requires an ArrivalProcess")
	}
	if dim <= 0 || opt.N < 0 {
		panic(fmt.Sprintf("workload: invalid options %+v", opt))
	}
	base := opt.IDBase
	if base == 0 {
		base = 1 << 32
	}
	return &onlineSource{
		s:      newSampler(d, Options{Dim: dim, N: opt.N, Seed: opt.Seed}),
		arr:    opt.Arrivals.Stream(rng.Mix(d.Seed, opt.Seed, arrivalSalt)),
		n:      opt.N,
		base:   base,
		tenant: opt.Tenant,
	}
}

type onlineSource struct {
	s       *sampler
	arr     ArrivalStream
	i, n    int
	base    uint64
	tenant  string
	session bool // tag each request as the opener of its own session
}

// Next implements Source.
//
//finemoe:allocok per-request costs are the sampler's amortized arena and topic-direction allocations
func (o *onlineSource) Next() (Request, bool) {
	if o.i >= o.n {
		return Request{}, false
	}
	q := o.s.next(o.base + uint64(o.i))
	q.ArrivalMS = o.arr.Next()
	q.Tenant = o.tenant
	if o.session {
		q.Session = q.ID
		q.Turn = 0
	}
	o.i++
	return q, true
}

// StreamInitial generates n session openers (turn 0, Session = own ID)
// on the given arrival process. Follow-up turns stay closed-loop via
// FollowUp.
func (s *Sessions) StreamInitial(ap ArrivalProcess, n int, idBase uint64) Source {
	src := StreamOnline(s.d, s.dim, OnlineOptions{
		Arrivals: ap, N: n, Seed: s.seed, IDBase: idBase,
	}).(*onlineSource)
	src.session = true
	return src
}

// StreamMultiTenant generates every tenant's trace on its own arrival
// process and merges them into one arrival-ordered stream. Request IDs
// are disjoint across tenants, every request is tagged with its tenant's
// name, and ties in arrival time break toward the earlier tenant index,
// so the merge is deterministic.
func StreamMultiTenant(dim int, seed uint64, tenants []TenantSpec) Source {
	if len(tenants) == 0 {
		panic("workload: StreamMultiTenant requires at least one tenant")
	}
	srcs := make([]Source, len(tenants))
	for i, t := range tenants {
		if t.Name == "" {
			panic(fmt.Sprintf("workload: tenant %d has no name", i))
		}
		if t.Arrivals == nil {
			panic(fmt.Sprintf("workload: tenant %q has no arrival process", t.Name))
		}
		srcs[i] = StreamOnline(t.Dataset, dim, OnlineOptions{
			Arrivals: t.Arrivals,
			N:        t.N,
			Seed:     rng.Mix(seed, uint64(i)),
			IDBase:   uint64(i+1) * tenantIDStride,
			Tenant:   t.Name,
		})
	}
	return MergeSources(srcs...)
}

// MergeSources merges arrival-ordered sources into one arrival-ordered
// stream, breaking arrival-time ties toward the lower source index. With
// a handful of sources the per-request linear scan is cheaper than a
// heap and trivially stable.
func MergeSources(srcs ...Source) Source {
	m := &mergeSource{
		srcs:  srcs,
		heads: make([]Request, len(srcs)),
		live:  make([]bool, len(srcs)),
	}
	for i, s := range srcs {
		m.heads[i], m.live[i] = s.Next()
	}
	return m
}

type mergeSource struct {
	srcs  []Source
	heads []Request
	live  []bool
}

// Next implements Source.
func (m *mergeSource) Next() (Request, bool) {
	best := -1
	for i := range m.srcs {
		if m.live[i] && (best < 0 || m.heads[i].ArrivalMS < m.heads[best].ArrivalMS) {
			best = i
		}
	}
	if best < 0 {
		return Request{}, false
	}
	q := m.heads[best]
	m.heads[best], m.live[best] = m.srcs[best].Next()
	return q, true
}

// Collect materializes a source into a slice — the inverse of
// NewSliceSource, for callers that need random access after streaming
// generation.
func Collect(src Source) []Request { return collect(src, 0) }

// collect materializes src into a slice with capacity for n requests.
// Every materializing generator knows its request count, so its trace is
// allocated once at its exact size instead of regrowing by doubling.
func collect(src Source, n int) []Request {
	out := make([]Request, 0, n)
	for {
		q, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, q)
	}
}

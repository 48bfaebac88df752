// Package httpserve exposes the FineMoE serving simulator over HTTP — the
// demo surface of cmd/finemoe-serve. Requests flow through the cluster
// pipeline: an admission policy gates each arrival, a router places it on
// one of N serving instances, and each instance's Expert Map Store starts
// empty and warms up as requests flow, so successive requests see
// improving hit rates and latency, mirroring the paper's online-serving
// behaviour (§6.3). An optional autoscaler resizes the fleet on queue
// pressure: grown instances join the routable set immediately, retired
// ones finish their in-flight work but receive no further routes.
//
// The server also exposes a fault surface mirroring the cluster
// simulator's failure model: POST /v1/faults crashes or restores a
// replica, /healthz and /v1/stats report each replica's health state
// (healthy | degraded | crashed | draining), and crashed replicas leave
// the routable set until restored with a cold cache.
//
// Locking is two-level: a short-held server mutex covers the admission and
// routing decision plus cumulative statistics, and each instance has its
// own mutex serializing its engine. Requests routed to different instances
// therefore simulate concurrently — the server no longer holds one global
// lock across entire simulated runs.
package httpserve

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"

	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/rng"
	"finemoe/internal/serve"
	"finemoe/internal/tensor"
	"finemoe/internal/workload"
)

// Config assembles a serving deployment.
type Config struct {
	// Model is the MoE architecture to serve.
	Model moe.Config
	// Seed drives the simulated gate network and prompt noise.
	Seed uint64
	// GPU and NumGPUs define the simulated testbed per instance.
	GPU     memsim.GPUSpec
	NumGPUs int
	// CacheBytes is each instance's expert-cache budget (0 = 30% of
	// expert weights).
	CacheBytes int64
	// DRAMBytes bounds each instance's host DRAM tier; experts beyond
	// the budget spill to an NVMe backing tier behind a shared staging
	// link (0 = unbounded DRAM, the degenerate two-tier hierarchy).
	DRAMBytes int64
	// StoreCapacity sizes each instance's Expert Map Store (0 = the
	// paper's 1K).
	StoreCapacity int
	// Instances is the number of serving replicas (0 = 1).
	Instances int
	// Admission gates arrivals (nil = always-admit).
	Admission cluster.Admission
	// Router places admitted requests (nil = least-loaded).
	Router cluster.Router
	// Autoscaler, when non-nil, resizes the fleet on queue pressure:
	// it is evaluated at each admitted arrival (the serving analogue of
	// the cluster's shared-clock tick) and may add a fresh instance or
	// retire one. Retired instances finish their in-flight work but
	// receive no further routes.
	Autoscaler cluster.Autoscaler
	// MinInstances / MaxInstances bound the autoscaled fleet
	// (defaults: 1 and 4× Instances).
	MinInstances, MaxInstances int
	// Dataset provides the topic space for synthetic prompts.
	Dataset workload.Dataset
}

// instance is one serving replica: an engine plus its own lock and
// cumulative statistics.
type instance struct {
	mu     sync.Mutex
	engine *serve.Engine
	policy *core.FineMoE

	served           int
	hits, misses     int
	sumTTFT, sumTPOT float64
	now              float64
	// memPressure caches the engine's thrash signal as of the last
	// request served; the full tier snapshot is fetched lazily by
	// Stats() so the serving path pays nothing for it.
	memPressure float64
}

// Server simulates serving over a fleet of instances behind the
// admission → routing pipeline.
type Server struct {
	cfg     moe.Config
	conf    Config // defaults applied; the template for scale-up instances
	dataset workload.Dataset

	// mu guards the pipeline decision, the fleet shape (instances /
	// retired / inflight / completed grow together), and the cumulative
	// counters below; it is never held across a simulated run.
	mu        sync.Mutex
	instances []*instance
	retired   []bool
	crashed   []bool
	// memPressure caches each instance's host-DRAM thrash level as of
	// its last completed request, so the routing view (fleetStates) can
	// carry the memory signal without taking instance locks.
	memPressure []float64
	admission   cluster.Admission
	router      cluster.Router
	scaler      cluster.Autoscaler
	nextID      uint64
	inflight    []int
	completed   []int
	admitted    int
	rejected    int
	vnow        float64 // latest instance virtual clock seen
}

// New builds a server from the configuration.
func New(c Config) *Server {
	if c.Model.Layers == 0 {
		c.Model = moe.Mixtral8x7B()
	}
	if c.GPU.Name == "" {
		c.GPU = memsim.RTX3090()
	}
	if c.NumGPUs <= 0 {
		c.NumGPUs = 6
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = int64(float64(c.Model.TotalExpertBytes()) * 0.3)
	}
	if c.Instances <= 0 {
		c.Instances = 1
	}
	if c.Admission == nil {
		c.Admission = cluster.NewAlwaysAdmit()
	}
	if c.Router == nil {
		c.Router = cluster.NewLeastLoaded()
	}
	if c.MinInstances <= 0 {
		c.MinInstances = 1
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 4 * c.Instances
	}
	if c.MaxInstances < c.MinInstances {
		c.MaxInstances = c.MinInstances
	}
	if c.Dataset.Name == "" {
		c.Dataset = workload.LMSYSChat1M()
	}
	s := &Server{
		cfg: c.Model, conf: c, dataset: c.Dataset,
		admission: c.Admission, router: c.Router, scaler: c.Autoscaler,
	}
	for i := 0; i < c.Instances; i++ {
		s.addInstanceLocked()
	}
	return s
}

// newReplica builds a fresh serving replica: its own simulated gate
// network (same seed = same model weights), policy, store, and cache.
func (s *Server) newReplica() *instance {
	c := s.conf
	model := moe.NewModel(c.Model, c.Seed)
	pol := core.NewFineMoE(core.NewStore(c.Model, c.StoreCapacity, c.Model.OptimalPrefetchDistance), core.Options{})
	eng := serve.New(serve.Options{
		Model: model, GPU: c.GPU, NumGPUs: c.NumGPUs,
		CacheBytes: c.CacheBytes, Policy: pol,
		Memory: memsim.ThreeTier(c.DRAMBytes),
	})
	return &instance{engine: eng, policy: pol}
}

// addInstanceLocked appends a fresh serving replica. Caller holds s.mu
// (or is still constructing the server).
func (s *Server) addInstanceLocked() {
	s.instances = append(s.instances, s.newReplica())
	s.retired = append(s.retired, false)
	s.crashed = append(s.crashed, false)
	s.inflight = append(s.inflight, 0)
	s.completed = append(s.completed, 0)
	s.memPressure = append(s.memPressure, 0)
}

// degradedPressure is the host-DRAM thrash level above which a replica
// reports "degraded" health: past it, a substantial fraction of expert
// fetches spill below DRAM and latency visibly suffers.
const degradedPressure = 0.5

// healthLocked classifies one replica's health state. Caller holds s.mu.
func (s *Server) healthLocked(i int) string {
	switch {
	case s.crashed[i]:
		return "crashed"
	case s.retired[i]:
		return "draining"
	case s.memPressure[i] > degradedPressure:
		return "degraded"
	default:
		return "healthy"
	}
}

// Crash marks replica i failed: it leaves the routable set immediately
// (the live server plays its own failure detector) and reports
// "crashed" health until restored. In-flight requests on the replica
// finish against its engine. Unknown IDs are rejected.
func (s *Server) Crash(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.instances) {
		return fmt.Errorf("httpserve: no instance %d", i)
	}
	s.crashed[i] = true
	return nil
}

// Restore replaces a crashed replica with a fresh one at the same slot:
// the restart is cold — empty Expert Map Store, empty expert cache —
// mirroring the cluster simulator's cold-cache crash replacement.
func (s *Server) Restore(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.instances) {
		return fmt.Errorf("httpserve: no instance %d", i)
	}
	if !s.crashed[i] {
		return fmt.Errorf("httpserve: instance %d is not crashed", i)
	}
	s.instances[i] = s.newReplica()
	s.crashed[i] = false
	s.retired[i] = false
	s.completed[i] = 0
	s.memPressure[i] = 0
	return nil
}

// maybeScaleLocked evaluates the autoscaler against the routable fleet at
// the fleet clock and applies at most one resize. A grow first reactivates
// a drained retired replica (warm pool) before allocating a fresh one, so
// a long-running server's total instance count stays bounded however the
// load oscillates. Caller holds s.mu.
func (s *Server) maybeScaleLocked(fleet []cluster.InstanceState) {
	if s.scaler == nil {
		return
	}
	d := s.scaler.Decide(s.vnow, fleet)
	applied := false
	switch d {
	case cluster.Grow:
		if len(fleet) >= s.conf.MaxInstances {
			break
		}
		reused := false
		for i := range s.instances {
			if s.retired[i] && !s.crashed[i] && s.inflight[i] == 0 {
				s.retired[i] = false
				reused = true
				break
			}
		}
		if !reused {
			s.addInstanceLocked()
		}
		applied = true
	case cluster.Shrink:
		if len(fleet) <= s.conf.MinInstances {
			break
		}
		// fleetStates carries each replica's whole load in QueueDepth, so
		// the shared victim selection sees the same signal the cluster's
		// shared-clock orchestrator does.
		s.retired[cluster.ShrinkVictim(fleet)] = true
		applied = true
	}
	cluster.NotifyDecision(s.scaler, d, applied)
}

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	// PromptTopic selects a topic cluster (-1 or out of range = derived
	// from the request ID).
	PromptTopic int `json:"prompt_topic"`
	// InputTokens / OutputTokens control lengths (defaults 37/32).
	InputTokens  int `json:"input_tokens"`
	OutputTokens int `json:"output_tokens"`
}

// GenerateResponse reports one simulated request.
type GenerateResponse struct {
	RequestID   uint64  `json:"request_id"`
	Topic       int     `json:"topic"`
	Instance    int     `json:"instance"`
	TTFTms      float64 `json:"ttft_ms"`
	TPOTms      float64 `json:"tpot_ms"`
	E2Ems       float64 `json:"e2e_ms"`
	Hits        int     `json:"expert_hits"`
	Misses      int     `json:"expert_misses"`
	HitRate     float64 `json:"hit_rate"`
	StoreSize   int     `json:"store_size"`
	VirtualTime float64 `json:"virtual_time_ms"`
}

// InstanceStats reports one replica's cumulative state for /v1/stats.
// QueueDepth is the routing-visible load signal — requests routed to the
// instance and not yet finished — so the per-instance values sum to the
// fleet-level QueueDepth.
type InstanceStats struct {
	ID         int  `json:"id"`
	Served     int  `json:"served_requests"`
	QueueDepth int  `json:"queue_depth"`
	Retired    bool `json:"retired"`
	// Health is the replica's state: healthy | degraded | crashed |
	// draining (see /healthz).
	Health      string  `json:"health"`
	HitRate     float64 `json:"hit_rate"`
	MeanTTFTms  float64 `json:"mean_ttft_ms"`
	StoreSize   int     `json:"store_size"`
	VirtualTime float64 `json:"virtual_time_ms"`
	// MemPressure is the instance's host-DRAM thrash level (decayed
	// fraction of expert fetches spilling below DRAM); Tiers the
	// per-tier residency/transfer breakdown (HBM first).
	MemPressure float64     `json:"mem_pressure"`
	Tiers       []TierStats `json:"tiers,omitempty"`
}

// TierStats reports one memory tier's residency and transfer activity
// for the JSON stats surface.
type TierStats struct {
	Name            string  `json:"name"`
	CapacityExperts int     `json:"capacity_experts"` // -1 = unbounded
	ResidentExperts int     `json:"resident_experts"`
	ResidentBytes   int64   `json:"resident_bytes"`
	Pressure        float64 `json:"pressure"`
	Promotions      int     `json:"promotions"`
	Demotions       int     `json:"demotions"`
	Drops           int     `json:"drops"`
	RejectedInserts int     `json:"rejected_inserts"`
	LinkPrefetches  int     `json:"link_prefetches"`
	LinkOnDemands   int     `json:"link_on_demands"`
	LinkBusyMS      float64 `json:"link_busy_ms"`
}

// tierStats maps an engine tier snapshot to the JSON form.
func tierStats(ts []serve.TierStat) []TierStats {
	out := make([]TierStats, len(ts))
	for i, t := range ts {
		out[i] = TierStats{
			Name:            t.Name,
			CapacityExperts: t.CapacityExperts,
			ResidentExperts: t.ResidentExperts,
			ResidentBytes:   t.ResidentBytes,
			Pressure:        t.Pressure,
			Promotions:      t.Promotions,
			Demotions:       t.Demotions,
			Drops:           t.Drops,
			RejectedInserts: t.RejectedInserts,
			LinkPrefetches:  t.Link.Prefetches,
			LinkOnDemands:   t.Link.OnDemands,
			LinkBusyMS:      t.Link.BusyMS,
		}
	}
	return out
}

// StatsResponse reports cumulative serving statistics.
type StatsResponse struct {
	Served      int     `json:"served_requests"`
	Admitted    int     `json:"admitted_requests"`
	Rejected    int     `json:"rejected_requests"`
	QueueDepth  int     `json:"queue_depth"`
	Active      int     `json:"active_instances"`
	Crashed     int     `json:"crashed_instances"`
	MeanTTFTms  float64 `json:"mean_ttft_ms"`
	MeanTPOTms  float64 `json:"mean_tpot_ms"`
	HitRate     float64 `json:"hit_rate"`
	StoreSize   int     `json:"store_size"`
	StoreBytes  int64   `json:"store_bytes"`
	VirtualTime float64 `json:"virtual_time_ms"`
	Admission   string  `json:"admission"`
	Router      string  `json:"router"`
	// MemPressure is the mean host-DRAM thrash level across active
	// instances; Tiers sums capacity, residency and transfer activity
	// per tier across all instances (HBM first), with occupancy
	// recomputed from the fleet sums.
	MemPressure float64         `json:"mem_pressure"`
	Tiers       []TierStats     `json:"tiers,omitempty"`
	Instances   []InstanceStats `json:"instances"`
}

// ErrRejected reports a request shed by the admission policy.
var ErrRejected = fmt.Errorf("httpserve: admission rejected request")

// ErrUnavailable reports that no routable replica remains (every
// instance crashed or draining).
var ErrUnavailable = fmt.Errorf("httpserve: no routable instance")

// fleetStates snapshots the routing view: the non-retired fleet, with
// each entry's ID the instance's stable index in s.instances. Caller
// holds s.mu; only server-side counters are read, keeping s.mu disjoint
// from the instance locks (a routed-but-unfinished request is the queue
// signal, since the demo serves synchronously).
func (s *Server) fleetStates() []cluster.InstanceState {
	out := make([]cluster.InstanceState, 0, len(s.instances))
	for i := range s.instances {
		if s.retired[i] || s.crashed[i] {
			continue
		}
		out = append(out, cluster.InstanceState{
			ID: i, QueueDepth: s.inflight[i],
			Submitted:   s.inflight[i] + s.completed[i],
			MemPressure: s.memPressure[i],
		})
	}
	return out
}

// Generate runs one request through admission → routing → instance and
// updates serving state. Returns ErrRejected when admission sheds it.
func (s *Server) Generate(req GenerateRequest) (GenerateResponse, error) {
	if req.InputTokens <= 0 {
		req.InputTokens = 37
	}
	if req.OutputTokens <= 0 {
		req.OutputTokens = 32
	}

	// Stage 1+2: admission and routing, under the short-held server lock.
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	topic := req.PromptTopic
	if topic < 0 || topic >= s.dataset.Topics {
		topic = int(rng.Mix(id, 0xF00D) % uint64(s.dataset.Topics))
	}
	emb := tensor.Copy(s.dataset.TopicDirection(s.cfg.SemDim, topic))
	noise := make([]float64, s.cfg.SemDim)
	rng.New(rng.Mix(0xBEEF, id)).UnitVec(noise)
	tensor.Axpy(s.dataset.TopicSpread, noise, emb)
	tensor.Normalize(emb)

	wreq := workload.Request{
		PromptSpec: moe.PromptSpec{
			ID: id, Embedding: emb,
			InputTokens: req.InputTokens, OutputTokens: req.OutputTokens,
			Seed: rng.Mix(0xCAFE, id),
		},
		Topic:   topic,
		Dataset: s.dataset.Name,
	}
	fleet := s.fleetStates()
	if len(fleet) == 0 {
		s.rejected++
		s.mu.Unlock()
		return GenerateResponse{RequestID: id, Topic: topic, Instance: -1}, ErrUnavailable
	}
	if !s.admission.Admit(wreq, s.vnow, fleet) {
		s.rejected++
		s.mu.Unlock()
		return GenerateResponse{RequestID: id, Topic: topic, Instance: -1}, ErrRejected
	}
	s.admitted++
	s.maybeScaleLocked(fleet)
	// The autoscaler may have grown the fleet; route over the fresh view
	// so a scale-up instance is immediately routable.
	if s.scaler != nil {
		fleet = s.fleetStates()
	}
	ri := s.router.Route(wreq, s.vnow, fleet)
	if ri < 0 || ri >= len(fleet) {
		panic("httpserve: router returned out-of-range instance")
	}
	target := fleet[ri].ID
	s.inflight[target]++
	in := s.instances[target]
	fleetNow := s.vnow
	s.mu.Unlock()

	// Stage 3: the instance simulates the request under its own lock, so
	// requests on different instances run concurrently. The arrival is
	// stamped at the later of the fleet clock (the admission timeline)
	// and the instance clock, and the instance clock is advanced to it,
	// so TTFT includes cross-instance queueing and admission's
	// token-bucket refill sees the same timeline the engines do.
	in.mu.Lock()
	arrival := in.engine.Now()
	if fleetNow > arrival {
		arrival = fleetNow
		in.engine.AdvanceClock(arrival)
	}
	wreq.ArrivalMS = arrival
	in.engine.Submit(wreq)
	in.engine.Drain()
	// TakeCompleted (not Completed) so a long-running server does not
	// accumulate per-request metrics without bound.
	done := in.engine.TakeCompleted()
	m := done[len(done)-1]
	in.served++
	in.hits += m.Hits
	in.misses += m.Misses
	in.sumTTFT += m.TTFTms
	in.sumTPOT += m.TPOTms
	in.now = in.engine.Now()
	in.memPressure = in.engine.MemoryPressure()
	memPressure := in.memPressure
	storeSize := in.policy.Store().Len()
	vnow := in.now
	in.mu.Unlock()

	s.mu.Lock()
	s.inflight[target]--
	s.completed[target]++
	s.memPressure[target] = memPressure
	if vnow > s.vnow {
		s.vnow = vnow
	}
	s.mu.Unlock()

	return GenerateResponse{
		RequestID: id, Topic: topic, Instance: target,
		TTFTms: m.TTFTms, TPOTms: m.TPOTms, E2Ems: m.E2Ems,
		Hits: m.Hits, Misses: m.Misses, HitRate: m.HitRate(),
		StoreSize: storeSize, VirtualTime: vnow,
	}, nil
}

// Stats returns cumulative fleet statistics.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	st := StatsResponse{
		Admitted:  s.admitted,
		Rejected:  s.rejected,
		Admission: s.admission.Name(),
		Router:    s.router.Name(),
	}
	instances := append([]*instance(nil), s.instances...)
	inflight := append([]int(nil), s.inflight...)
	retired := append([]bool(nil), s.retired...)
	crashed := append([]bool(nil), s.crashed...)
	health := make([]string, len(s.instances))
	for i := range s.instances {
		health[i] = s.healthLocked(i)
	}
	s.mu.Unlock()

	var sumTTFT, sumTPOT float64
	var hits, misses int
	var memSum float64
	for i, in := range instances {
		in.mu.Lock()
		is := InstanceStats{
			ID: i, Served: in.served, QueueDepth: inflight[i], Retired: retired[i],
			Health:    health[i],
			StoreSize: in.policy.Store().Len(), VirtualTime: in.now,
			MemPressure: in.memPressure, Tiers: tierStats(in.engine.TierStats()),
		}
		// Fleet tier totals: instances share one hierarchy shape, so
		// summing by position is well-defined. Capacity sums alongside
		// residency (staying -1 while unbounded) and occupancy is
		// recomputed from the sums, so the fleet record is internally
		// consistent rather than inheriting instance 0's values.
		for j, ts := range is.Tiers {
			if j >= len(st.Tiers) {
				st.Tiers = append(st.Tiers, TierStats{Name: ts.Name, CapacityExperts: -1})
			}
			ft := &st.Tiers[j]
			if ts.CapacityExperts >= 0 {
				if ft.CapacityExperts < 0 {
					ft.CapacityExperts = 0
				}
				ft.CapacityExperts += ts.CapacityExperts
			}
			ft.ResidentExperts += ts.ResidentExperts
			ft.ResidentBytes += ts.ResidentBytes
			ft.Promotions += ts.Promotions
			ft.Demotions += ts.Demotions
			ft.Drops += ts.Drops
			ft.RejectedInserts += ts.RejectedInserts
			ft.LinkPrefetches += ts.LinkPrefetches
			ft.LinkOnDemands += ts.LinkOnDemands
			ft.LinkBusyMS += ts.LinkBusyMS
			if ft.CapacityExperts > 0 {
				ft.Pressure = float64(ft.ResidentExperts) / float64(ft.CapacityExperts)
			}
		}
		if crashed[i] {
			st.Crashed++
		} else if !retired[i] {
			st.Active++
			memSum += in.memPressure
		}
		if in.served > 0 {
			is.MeanTTFTms = in.sumTTFT / float64(in.served)
		}
		if in.hits+in.misses > 0 {
			is.HitRate = float64(in.hits) / float64(in.hits+in.misses)
		}
		st.Served += in.served
		st.QueueDepth += inflight[i]
		st.StoreSize += is.StoreSize
		st.StoreBytes += in.policy.Store().MemoryBytes()
		sumTTFT += in.sumTTFT
		sumTPOT += in.sumTPOT
		hits += in.hits
		misses += in.misses
		if in.now > st.VirtualTime {
			st.VirtualTime = in.now
		}
		st.Instances = append(st.Instances, is)
		in.mu.Unlock()
	}
	if st.Served > 0 {
		st.MeanTTFTms = sumTTFT / float64(st.Served)
		st.MeanTPOTms = sumTPOT / float64(st.Served)
	}
	if hits+misses > 0 {
		st.HitRate = float64(hits) / float64(hits+misses)
	}
	if st.Active > 0 {
		st.MemPressure = memSum / float64(st.Active)
	}
	return st
}

// ConfigInfo describes the deployment for GET /v1/config.
func (s *Server) ConfigInfo() map[string]any {
	s.mu.Lock()
	pol := s.instances[0].policy
	n := len(s.instances)
	s.mu.Unlock()
	info := map[string]any{
		"model":             s.cfg.Name,
		"layers":            s.cfg.Layers,
		"experts_per_layer": s.cfg.RoutedExperts,
		"top_k":             s.cfg.TopK,
		"prefetch_distance": pol.PrefetchDistance(),
		"store_capacity":    pol.Store().Capacity(),
		"dataset":           s.dataset.Name,
		"instances":         n,
		"admission":         s.admission.Name(),
		"router":            s.router.Name(),
	}
	if s.conf.DRAMBytes > 0 {
		info["dram_bytes"] = s.conf.DRAMBytes
		info["memory_tiers"] = []string{"HBM", "DRAM", "NVMe"}
	} else {
		info["memory_tiers"] = []string{"HBM", "DRAM"}
	}
	if s.scaler != nil {
		info["autoscaler"] = s.scaler.Name()
		info["min_instances"] = s.conf.MinInstances
		info["max_instances"] = s.conf.MaxInstances
	}
	return info
}

// Handler returns the HTTP mux serving the /v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/config", s.handleConfig)
	mux.HandleFunc("/v1/faults", s.handleFaults)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.InputTokens > 2048 || req.OutputTokens > 1024 || req.InputTokens < 0 || req.OutputTokens < 0 {
		http.Error(w, "token counts out of range", http.StatusBadRequest)
		return
	}
	resp, err := s.Generate(req)
	if err != nil {
		code, msg := http.StatusTooManyRequests, "rejected by admission policy"
		if err == ErrUnavailable {
			code, msg = http.StatusServiceUnavailable, "no routable instance"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if err := json.NewEncoder(w).Encode(map[string]any{
			"error": msg, "request_id": resp.RequestID,
		}); err != nil {
			log.Printf("httpserve: encode rejection: %v", err)
		}
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.ConfigInfo())
}

// InstanceHealth is one replica's entry in the /healthz fleet list.
type InstanceHealth struct {
	ID     int    `json:"id"`
	Health string `json:"health"`
}

// handleHealthz reports overall and per-replica health. The endpoint
// stays 200 "ok" while at least one replica is routable (healthy or
// degraded) and flips to 503 "unavailable" when none is — the contract
// a load balancer's health check needs.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fleet := make([]InstanceHealth, len(s.instances))
	routable := 0
	for i := range s.instances {
		h := s.healthLocked(i)
		if h == "healthy" || h == "degraded" {
			routable++
		}
		fleet[i] = InstanceHealth{ID: i, Health: h}
	}
	s.mu.Unlock()
	status := "ok"
	if routable == 0 {
		status = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{
		"status": status, "instances": len(fleet), "routable": routable,
		"fleet": fleet,
	})
}

// FaultRequest is the POST /v1/faults body: inject or clear a fault on
// one replica.
type FaultRequest struct {
	Instance int `json:"instance"`
	// Action is "crash" (fail the replica in place) or "restore"
	// (replace it with a cold restart).
	Action string `json:"action"`
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req FaultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var err error
	switch req.Action {
	case "crash":
		err = s.Crash(req.Instance)
	case "restore":
		err = s.Restore(req.Instance)
	default:
		http.Error(w, fmt.Sprintf("unknown action %q (crash|restore)", req.Action), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	h := s.healthLocked(req.Instance)
	s.mu.Unlock()
	writeJSON(w, map[string]any{"instance": req.Instance, "health": h})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpserve: encode response: %v", err)
	}
}

package scenarios

import (
	"fmt"
	"sort"
	"strings"

	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/par"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// Options configures a Runner: the simulated model and testbed every
// scenario in the matrix runs on, so differences between reports come
// from the scenarios themselves.
type Options struct {
	// Model is the simulated MoE model (required).
	Model moe.Config
	// GPU and NumGPUs define the per-instance testbed (defaults: RTX 3090
	// × 6, the paper's).
	GPU     memsim.GPUSpec
	NumGPUs int
	// StoreCapacity is each instance's Expert Map Store size (default
	// 1000, the paper's).
	StoreCapacity int
	// CacheBytes is each instance's expert-cache budget (0 = the
	// engine's derived default).
	CacheBytes int64
	// DRAMBytes bounds each instance's host DRAM tier, spilling experts
	// to an NVMe backing tier behind a shared staging link (0 = the
	// degenerate unbounded-DRAM hierarchy).
	DRAMBytes int64
	// MaxInput and MaxOutput clamp token counts (0 = unclamped); applied
	// to trace requests and injected follow-ups alike.
	MaxInput, MaxOutput int
	// Seed drives workload sampling and the model simulator.
	Seed uint64
	// Workers bounds RunMatrix's scenario-level parallelism: 0 uses
	// GOMAXPROCS, 1 forces the serial path, n > 1 runs at most n
	// scenarios concurrently. Reports are byte-identical regardless of
	// the worker count — every scenario run is a pure function of
	// (Options, Scenario), and results are ordered by matrix position.
	Workers int
	// ClusterWorkers is ignored: each scenario runs on the cluster's one
	// event loop.
	//
	// Deprecated: it set cluster.Options.Workers, whose epoch-sharded
	// loop was removed.
	ClusterWorkers int
}

func (o Options) withDefaults() Options {
	if o.GPU.Name == "" {
		o.GPU = memsim.RTX3090()
	}
	if o.NumGPUs <= 0 {
		o.NumGPUs = 6
	}
	if o.StoreCapacity <= 0 {
		o.StoreCapacity = 1000
	}
	return o
}

// Runner executes scenarios on a shared model and testbed.
type Runner struct {
	opts  Options
	model *moe.Model
}

// NewRunner builds a runner; the model simulator is constructed once and
// shared read-only across every scenario run.
func NewRunner(opts Options) *Runner {
	if opts.Model.Name == "" {
		panic("scenarios: Options.Model is required")
	}
	opts = opts.withDefaults()
	return &Runner{opts: opts, model: moe.NewModel(opts.Model, opts.Seed)}
}

// engine builds one fresh cold-store FineMoE serving instance (engines
// are single-run; every scenario gets a new fleet).
func (r *Runner) engine() *serve.Engine {
	cfg := r.opts.Model
	pol := core.NewFineMoE(
		core.NewStore(cfg, r.opts.StoreCapacity, cfg.OptimalPrefetchDistance),
		core.Options{})
	return serve.New(serve.Options{
		Model: r.model, GPU: r.opts.GPU, NumGPUs: r.opts.NumGPUs,
		CacheBytes: r.opts.CacheBytes,
		Policy:     pol,
		Memory:     memsim.ThreeTier(r.opts.DRAMBytes),
	})
}

// clamp applies the runner's token clamps to one request.
func (r *Runner) clamp(q workload.Request) workload.Request {
	if r.opts.MaxInput > 0 && q.InputTokens > r.opts.MaxInput {
		q.InputTokens = r.opts.MaxInput
	}
	if r.opts.MaxOutput > 0 && q.OutputTokens > r.opts.MaxOutput {
		q.OutputTokens = r.opts.MaxOutput
	}
	return q
}

// TenantReport is one tenant's slice of a scenario run.
type TenantReport struct {
	// Requests counts the tenant's offered arrivals; Served its
	// completions.
	Requests, Served int
	// MeanTTFT and P99TTFT are the tenant's first-token latencies (ms).
	MeanTTFT, P99TTFT float64
}

// Report is one scenario's comparable outcome.
type Report struct {
	// Scenario, Workload and Fleet identify the cell.
	Scenario, Workload, Fleet string
	// Requests counts offered arrivals, follow-ups included; FollowUps
	// the closed-loop injections among them.
	Requests, FollowUps int
	// Admitted/Rejected/Served are the pipeline counts.
	Admitted, Rejected, Served int
	// TTFT, TPOT and E2E are fleet-wide latency order statistics (ms).
	TTFT, TPOT, E2E metrics.Summary
	// HitRate is the fleet expert-cache hit rate.
	HitRate float64
	// Dispersion is the offered traffic's index of dispersion (Poisson ≈
	// 1; bursty > 1), measured over all arrivals including follow-ups.
	Dispersion float64
	// PeakInstances, Resizes and InstanceHours summarize autoscaling.
	PeakInstances int
	Resizes       int
	InstanceHours float64
	// WallClockMS is the fleet makespan.
	WallClockMS float64
	// Tenants partitions the run per tenant (nil for single-tenant
	// scenarios).
	Tenants map[string]TenantReport

	// Faulted marks a scenario that declared a FaultSpec; the fields
	// below (and their serialized lines) exist only then, so fault-free
	// reports stay byte-identical to pre-fault-support ones.
	Faulted bool
	// Crashes/Failed/Lost/Retries/HedgedWins are the availability counts
	// (see cluster.Result); DegradedMS the brownout/stall exposure.
	Crashes, Failed, Lost, Retries, HedgedWins int
	DegradedMS                                 float64
	// Goodput is Served / Requests — the fraction of offered work that
	// completed.
	Goodput float64
}

// Serialize renders the report as a stable, line-oriented key=value form:
// two runs of the same scenario and seed must serialize byte-identically
// (the determinism contract golden tests pin).
func (rep *Report) Serialize() string {
	var b strings.Builder
	w := func(k string, v any) { fmt.Fprintf(&b, "%s=%v\n", k, v) }
	w("scenario", rep.Scenario)
	w("workload", rep.Workload)
	w("fleet", rep.Fleet)
	w("requests", rep.Requests)
	w("follow_ups", rep.FollowUps)
	w("admitted", rep.Admitted)
	w("rejected", rep.Rejected)
	w("served", rep.Served)
	w("ttft_ms", fmt.Sprintf("mean=%.6f p50=%.6f p99=%.6f max=%.6f",
		rep.TTFT.Mean, rep.TTFT.P50, rep.TTFT.P99, rep.TTFT.Max))
	w("tpot_ms", fmt.Sprintf("mean=%.6f p99=%.6f", rep.TPOT.Mean, rep.TPOT.P99))
	w("e2e_ms", fmt.Sprintf("mean=%.6f p99=%.6f", rep.E2E.Mean, rep.E2E.P99))
	w("hit_rate", fmt.Sprintf("%.6f", rep.HitRate))
	w("dispersion", fmt.Sprintf("%.6f", rep.Dispersion))
	w("peak_instances", rep.PeakInstances)
	w("resizes", rep.Resizes)
	w("instance_hours", fmt.Sprintf("%.8f", rep.InstanceHours))
	w("wall_clock_ms", fmt.Sprintf("%.6f", rep.WallClockMS))
	if rep.Faulted {
		w("crashes", rep.Crashes)
		w("failed", rep.Failed)
		w("lost_in_flight", rep.Lost)
		w("retries", rep.Retries)
		w("hedged_wins", rep.HedgedWins)
		w("degraded_ms", fmt.Sprintf("%.6f", rep.DegradedMS))
		w("goodput", fmt.Sprintf("%.6f", rep.Goodput))
	}
	names := make([]string, 0, len(rep.Tenants))
	for name := range rep.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := rep.Tenants[name]
		w("tenant."+name, fmt.Sprintf("requests=%d served=%d ttft_mean=%.6f ttft_p99=%.6f",
			t.Requests, t.Served, t.MeanTTFT, t.P99TTFT))
	}
	return b.String()
}

// String renders a one-line summary.
func (rep *Report) String() string {
	return fmt.Sprintf(
		"%s [%s on %s]: served %d/%d (%d follow-ups, %d rejected), TTFT %.0f ms (p99 %.0f), hit rate %.3f, dispersion %.2f, peak %d inst, %.5f inst-h",
		rep.Scenario, rep.Workload, rep.Fleet, rep.Served, rep.Requests,
		rep.FollowUps, rep.Rejected, rep.TTFT.Mean, rep.TTFT.P99,
		rep.HitRate, rep.Dispersion, rep.PeakInstances, rep.InstanceHours)
}

// workloadLabel renders the workload's short identity.
func workloadLabel(w WorkloadSpec) string {
	switch {
	case len(w.Tenants) > 0:
		names := make([]string, len(w.Tenants))
		for i, t := range w.Tenants {
			names[i] = t.Name + ":" + t.Arrivals.Name()
		}
		return "tenants[" + strings.Join(names, ",") + "]"
	case w.Sessions != nil:
		return fmt.Sprintf("sessions(%s, %.1f turns)", w.Arrivals.Name(), w.Sessions.MeanTurns)
	default:
		return w.Arrivals.Name()
	}
}

// Run executes one scenario end to end and reports it.
func (r *Runner) Run(sc Scenario) (*Report, error) {
	if sc.Fleet.Instances <= 0 {
		return nil, fmt.Errorf("scenarios: %s: fleet needs at least one instance", sc.Name)
	}
	if !sc.Fleet.Autoscale {
		if err := sc.Faults.checkTargets(sc.Fleet.Instances); err != nil {
			return nil, fmt.Errorf("scenarios: %s: %w", sc.Name, err)
		}
	}

	// Workload: the open-loop trace plus, for sessions, the closed-loop
	// follow-up hook. tenantOf tracks every offered request's tenant so
	// served metrics can be partitioned after the run.
	var trace []workload.Request
	var followUp func(serve.RequestMetrics, workload.Request) (workload.Request, bool)
	dim := r.opts.Model.SemDim
	injectedArrivals := []float64{}
	switch {
	case len(sc.Workload.Tenants) > 0:
		for i, tn := range sc.Workload.Tenants {
			if tn.Name == "" {
				return nil, fmt.Errorf("scenarios: %s: tenant %d has no name", sc.Name, i)
			}
			if tn.Arrivals == nil {
				return nil, fmt.Errorf("scenarios: %s: tenant %q has no arrival process", sc.Name, tn.Name)
			}
		}
		trace = workload.MultiTenantTrace(dim, r.opts.Seed, sc.Workload.Tenants)
	case sc.Workload.Sessions != nil:
		if sc.Workload.Arrivals == nil {
			return nil, fmt.Errorf("scenarios: %s: sessions need an arrival process", sc.Name)
		}
		sess := workload.NewSessions(sc.Workload.Dataset, dim, *sc.Workload.Sessions, r.opts.Seed)
		trace = sess.Initial(sc.Workload.Arrivals, sc.Workload.Requests, 0)
		followUp = func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
			fu, ok := sess.FollowUp(orig, done.EndMS)
			if !ok {
				return workload.Request{}, false
			}
			injectedArrivals = append(injectedArrivals, fu.ArrivalMS)
			return r.clamp(fu), true
		}
	default:
		if sc.Workload.Arrivals == nil {
			return nil, fmt.Errorf("scenarios: %s: workload needs an arrival process", sc.Name)
		}
		trace = workload.OnlineTrace(sc.Workload.Dataset, dim, workload.OnlineOptions{
			Arrivals: sc.Workload.Arrivals, N: sc.Workload.Requests, Seed: r.opts.Seed,
		})
	}
	for i := range trace {
		trace[i] = r.clamp(trace[i])
	}

	// Fleet: initial engines, named policies, optional autoscaling.
	rt, err := NewRouter(sc.Fleet.Router)
	if err != nil {
		return nil, fmt.Errorf("scenarios: %s: %w", sc.Name, err)
	}
	adm, err := NewAdmission(sc.Fleet.Admission, sc.Fleet.AdmitBurst, sc.Fleet.AdmitRate)
	if err != nil {
		return nil, fmt.Errorf("scenarios: %s: %w", sc.Name, err)
	}
	engines := make([]*serve.Engine, sc.Fleet.Instances)
	for i := range engines {
		engines[i] = r.engine()
	}
	copts := cluster.Options{
		Engines:   engines,
		Admission: adm,
		Router:    rt,
		FollowUp:  followUp,
	}
	if sc.Faults.faulted() {
		copts.FaultPlan = sc.Faults.plan()
		copts.Resilience = sc.Faults.Resilience
		if sc.Faults.Resilience.ReplaceOnCrash {
			// Crash replacement spawns cold-store instances through the
			// same factory autoscaled growth uses; legal without an
			// autoscaler.
			copts.EngineFactory = func(id int) *serve.Engine { return r.engine() }
			copts.MaxInstances = sc.Fleet.maxInst()
		}
	}
	if sc.Fleet.Autoscale {
		copts.Autoscaler = cluster.NewQueuePressure(cluster.QueuePressureOptions{
			HighWatermark: sc.Fleet.HighWatermark,
			LowWatermark:  sc.Fleet.LowWatermark,
			SustainMS:     sc.Fleet.SustainMS,
			CooldownMS:    sc.Fleet.CooldownMS,
		})
		copts.EngineFactory = func(id int) *serve.Engine { return r.engine() }
		copts.MinInstances = sc.Fleet.minInst()
		copts.MaxInstances = sc.Fleet.maxInst()
		copts.AutoscaleIntervalMS = sc.Fleet.TickMS
	}
	res := cluster.New(copts).RunTrace(trace)

	// Aggregate into the comparable report.
	rep := &Report{
		Scenario:      sc.Name,
		Workload:      workloadLabel(sc.Workload),
		Fleet:         sc.Fleet.Label(),
		Requests:      len(trace) + res.FollowUps,
		FollowUps:     res.FollowUps,
		Admitted:      res.Admitted,
		Rejected:      res.Rejected,
		Served:        res.Served,
		TTFT:          res.TTFT,
		TPOT:          res.TPOT,
		E2E:           res.E2E,
		HitRate:       res.HitRate,
		PeakInstances: res.PeakInstances,
		Resizes:       len(res.ScaleEvents),
		InstanceHours: res.InstanceHours,
		WallClockMS:   res.WallClockMS,
	}
	if sc.Faults.faulted() {
		rep.Faulted = true
		rep.Crashes = res.Crashes
		rep.Failed = res.FailedRequests
		rep.Lost = res.LostInFlight
		rep.Retries = res.Retries
		rep.HedgedWins = res.HedgedWins
		rep.DegradedMS = res.DegradedMS
		if rep.Requests > 0 {
			rep.Goodput = float64(res.Served) / float64(rep.Requests)
		}
	}

	// Burstiness of the offered traffic (trace plus follow-ups), over 8
	// windows of the span — wide enough that each window holds several
	// arrivals even on short traces (per-window means near 1 squash the
	// count variance toward Bernoulli and hide bursts).
	arrivals := make([]float64, 0, len(trace)+len(injectedArrivals))
	for _, q := range trace {
		arrivals = append(arrivals, q.ArrivalMS)
	}
	arrivals = append(arrivals, injectedArrivals...)
	sort.Float64s(arrivals)
	if len(arrivals) > 0 {
		rep.Dispersion = workload.IndexOfDispersion(arrivals, arrivals[len(arrivals)-1]/8)
	}

	// Per-tenant partition: every served request's metrics fall under
	// exactly one tenant. Tenant mixes are open-loop (no sessions), so
	// the trace holds every offered request.
	if len(sc.Workload.Tenants) > 0 {
		tenantOf := make(map[uint64]string, len(trace))
		perTenant := map[string][]float64{}
		counts := map[string]int{}
		for _, q := range trace {
			tenantOf[q.ID] = q.Tenant
			counts[q.Tenant]++
		}
		for _, ir := range res.Instances {
			for _, q := range ir.Result.Requests {
				name := tenantOf[q.ID]
				perTenant[name] = append(perTenant[name], q.TTFTms)
			}
		}
		rep.Tenants = map[string]TenantReport{}
		for _, t := range sc.Workload.Tenants {
			ttfts := append([]float64(nil), perTenant[t.Name]...)
			sort.Float64s(ttfts)
			tr := TenantReport{Requests: counts[t.Name], Served: len(ttfts)}
			if len(ttfts) > 0 {
				s := metrics.Summarize(ttfts)
				tr.MeanTTFT, tr.P99TTFT = s.Mean, s.P99
			}
			rep.Tenants[t.Name] = tr
		}
	}
	return rep, nil
}

// RunMatrix executes a scenario matrix and returns one report per
// scenario, in matrix order. Scenarios run on a bounded worker pool
// (Options.Workers); each run builds its own fleet and trace and shares
// only the read-only model simulator, so the reports — and their
// serialized bytes — are identical to a serial sweep regardless of the
// worker count or scheduling. On error, the error of the lowest-index
// failing scenario is returned (what a serial sweep would have hit
// first).
func (r *Runner) RunMatrix(scs []Scenario) ([]*Report, error) {
	reports := make([]*Report, len(scs))
	errs := make([]error, len(scs))
	par.ForEach(r.opts.Workers, len(scs), func(i int) {
		reports[i], errs[i] = r.Run(scs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

package main

import (
	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/faults"
	"finemoe/internal/memsim"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/scenarios"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// workloadSpec is one traffic mix and the event loop that serves it.
type workloadSpec struct {
	// requests is the open-loop trace length of one round.
	requests int
	// stream feeds the loop from a generator workload.Source; otherwise
	// the trace is materialized as a []workload.Request during set-up.
	stream bool
	// workers is cluster.Options.Workers: 0 runs the serial shared-clock
	// loop, 2 the epoch-sharded loop on two worker goroutines.
	workers int
	// scenario replaces the open-loop MMPP traffic with the fault
	// scenario: closed-loop multi-turn sessions, a crash + brownout +
	// stall plan under full resilience, a bounded DRAM tier spilling to
	// NVMe, and semantic-affinity routing.
	scenario bool
}

// workloads are the benchmark's traffic mixes. serial, stream and
// sharded serve the bursty open-loop traffic of the committed
// BENCH_cluster.json run, scaled down to fit a round, through the three
// event loops a change could make faster or slower: a change to the
// materialized path shows on serial, to the generators on stream, to the
// sharded loop on sharded. stream's rounds are four times longer, the
// longest horizon a run's time allows, so that memory which grows with
// the horizon shows in its heap figures. scenario exercises what the
// open-loop mixes bypass: follow-up injection, faults, resilience, the
// NVMe staging tier and the semantic router.
var workloads = map[string]workloadSpec{
	"serial":   {requests: roundRequests},
	"stream":   {requests: 4 * roundRequests, stream: true},
	"sharded":  {requests: roundRequests, workers: 2},
	"scenario": {stream: true, scenario: true},
}

const (
	// instances and roundRequests size an open-loop round: the committed
	// 32-instance fleet at 8 req/s per instance, for a round of one to two
	// seconds on one core.
	instances     = 32
	roundRequests = 12288
	// storeCapacity is each instance's Expert Map Store size.
	storeCapacity = 50

	// The fault scenario's fleet, session openers (about three turns
	// each, so a round serves about roundRequests) and per-instance DRAM
	// budget in experts: the GPU cache holds half of Tiny's 24 experts,
	// so 16 in DRAM leaves 8 on the NVMe tier.
	scenarioInstances = 8
	scenarioOpeners   = 4096
	scenarioDRAM      = 16
)

// dataset is the prompt population every workload samples: Tiny-model
// prompts a few tokens long, so a round spends its time in the serving
// stack rather than in long decodes.
func dataset(seed uint64) workload.Dataset {
	return workload.Dataset{
		Name: "perfbench", Topics: 8, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: seed,
	}
}

// openLoop is the open-loop traffic of serial, stream and sharded.
func openLoop(seed uint64, n int) workload.OnlineOptions {
	return workload.OnlineOptions{
		Arrivals: workload.BurstyMMPP(8 * instances), N: n, Seed: seed,
	}
}

// scenarioSpec declares the fault scenario in the scenarios package's
// terms. The benchmark assembles the same fleet itself (so the layer
// probes can wrap its policies) and checks its outcome against
// scenarios.Runner on the sharded loop. Fault times are fractions of the
// openers' expected span, as in the faultfig experiment.
func scenarioSpec(seed uint64) scenarios.Scenario {
	rate := 8.0 * scenarioInstances
	span := float64(scenarioOpeners) / rate * 1000
	return scenarios.Scenario{
		Name: "perfbench",
		Workload: scenarios.WorkloadSpec{
			Dataset:  dataset(seed),
			Arrivals: workload.Poisson{RatePerSec: rate},
			Requests: scenarioOpeners,
			Sessions: &workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 2, Drift: 0.05},
		},
		Fleet: scenarios.FleetSpec{
			Instances: scenarioInstances, Router: "semantic-affinity",
			MaxInstances: scenarioInstances + 1,
		},
		Faults: &scenarios.FaultSpec{
			Crashes: []faults.Crash{{AtMS: 0.35 * span, Instance: 1, DetectMS: 0.15 * span}},
			Brownouts: []faults.Brownout{{AtMS: 0.2 * span, DurationMS: 0.5 * span,
				Link: faults.LinkPCIe, Factor: 0.1, Instance: 2}},
			Stalls: []faults.Stall{{AtMS: 0.1 * span, DurationMS: 0.05 * span,
				Link: faults.LinkPCIe, Instance: faults.AllInstances}},
			Resilience: cluster.ResilienceOptions{
				Enabled: true, MaxRetries: 3, RequeueOnCrash: true, ReplaceOnCrash: true, Seed: seed,
			},
		},
	}
}

// scenarioOptions is the scenarios.Runner configuration the benchmark's
// own scenario fleet mirrors.
func scenarioOptions(seed uint64, clusterWorkers int) scenarios.Options {
	cfg := moe.Tiny()
	return scenarios.Options{
		Model: cfg, GPU: memsim.RTX3090(), NumGPUs: 1,
		StoreCapacity: storeCapacity, DRAMBytes: scenarioDRAM * cfg.ExpertBytes(),
		Seed: seed, ClusterWorkers: clusterWorkers,
	}
}

// system is one round's freshly built fleet and its input (engines are
// single-run, so every round builds its own).
type system struct {
	c       *cluster.Cluster
	trace   []workload.Request // materialized input, or nil
	src     workload.Source    // streaming input, or nil
	openers int                // requests the input offers before follow-ups
	probes  *probes            // layer probes, or nil when untraced
}

// build assembles a round's system. With traced set, every policy,
// the router and the source are wrapped in layer probes.
func build(w workloadSpec, seed uint64, traced bool) *system {
	s := &system{}
	if traced {
		s.probes = &probes{}
	}
	m := moe.NewModel(moe.Tiny(), seed)
	if w.scenario {
		s.buildScenario(m, seed)
		return s
	}
	d := dataset(seed)
	if w.stream {
		s.src = workload.StreamOnline(d, m.Cfg.SemDim, openLoop(seed, w.requests))
	} else {
		s.trace = workload.OnlineTrace(d, m.Cfg.SemDim, openLoop(seed, w.requests))
	}
	s.openers = w.requests
	engines := make([]*serve.Engine, instances)
	for i := range engines {
		engines[i] = s.engine(m, memsim.Hierarchy{})
	}
	s.c = cluster.New(cluster.Options{
		Engines: engines,
		Router:  s.probes.router(cluster.NewLeastLoaded()),
		Workers: w.workers,
	})
	return s
}

// buildScenario assembles the fault scenario exactly as
// scenarios.Runner.Run would for scenarioSpec, but on the streaming
// opener source and the serial loop.
func (s *system) buildScenario(m *moe.Model, seed uint64) {
	sc := scenarioSpec(seed)
	opts := scenarioOptions(seed, 0)
	mem := memsim.ThreeTier(opts.DRAMBytes)
	sess := workload.NewSessions(sc.Workload.Dataset, m.Cfg.SemDim, *sc.Workload.Sessions, seed)
	s.src = sess.StreamInitial(sc.Workload.Arrivals, sc.Workload.Requests, 0)
	s.openers = sc.Workload.Requests
	engines := make([]*serve.Engine, sc.Fleet.Instances)
	for i := range engines {
		engines[i] = s.engine(m, mem)
	}
	f := sc.Faults
	s.c = cluster.New(cluster.Options{
		Engines:   engines,
		Admission: cluster.NewAlwaysAdmit(),
		Router:    s.probes.router(cluster.NewSemanticAffinity(cluster.SemanticAffinityOptions{})),
		FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
			return sess.FollowUp(orig, done.EndMS)
		},
		FaultPlan:     &faults.Plan{Crashes: f.Crashes, Brownouts: f.Brownouts, Stalls: f.Stalls},
		Resilience:    f.Resilience,
		EngineFactory: func(int) *serve.Engine { return s.engine(m, mem) },
		MaxInstances:  sc.Fleet.MaxInstances,
	})
}

// engine builds one cold-store FineMoE instance on the paper's testbed
// GPU.
func (s *system) engine(m *moe.Model, mem memsim.Hierarchy) *serve.Engine {
	cfg := m.Cfg
	var pol policy.Policy = core.NewFineMoE(
		core.NewStore(cfg, storeCapacity, cfg.OptimalPrefetchDistance), core.Options{})
	return serve.New(serve.Options{
		Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
		Policy: s.probes.policy(pol), Memory: mem,
	})
}

// run serves the round's input to completion. A traced materialized
// round goes through RunStream over the trace's SliceSource, which is
// what RunTrace runs, so that the source probe sees it.
func (s *system) run() *cluster.Result {
	switch {
	case s.trace == nil:
		return s.c.RunStream(s.probes.source(s.src))
	case s.probes != nil:
		return s.c.RunStream(s.probes.source(workload.NewSliceSource(s.trace)))
	}
	return s.c.RunTrace(s.trace)
}

// reference is the open-loop run an equivalent loop must reproduce: the
// serial loop for the sharded one, the other input form for the serial
// loop.
func reference(w workloadSpec) workloadSpec {
	if w.workers > 0 {
		w.workers = 0
	} else {
		w.stream = !w.stream
	}
	return w
}

// outcome is the part of a run's result that an equivalent run must
// reproduce exactly; for the fault scenario it is what a
// scenarios.Report carries.
type outcome struct {
	Offered, Admitted, Rejected, Served, FollowUps int
	Failed, Retries, HedgedWins, Lost, Crashes     int
	TTFT, TPOT, E2E                                metrics.Summary
	HitRate, WallClockMS, DegradedMS, InstHours    float64
}

func resultOutcome(res *cluster.Result, openers int) outcome {
	return outcome{
		Offered: openers + res.FollowUps, Admitted: res.Admitted, Rejected: res.Rejected,
		Served: res.Served, FollowUps: res.FollowUps,
		Failed: res.FailedRequests, Retries: res.Retries, HedgedWins: res.HedgedWins,
		Lost: res.LostInFlight, Crashes: res.Crashes,
		TTFT: res.TTFT, TPOT: res.TPOT, E2E: res.E2E,
		HitRate: res.HitRate, WallClockMS: res.WallClockMS,
		DegradedMS: res.DegradedMS, InstHours: res.InstanceHours,
	}
}

func reportOutcome(rep *scenarios.Report) outcome {
	return outcome{
		Offered: rep.Requests, Admitted: rep.Admitted, Rejected: rep.Rejected,
		Served: rep.Served, FollowUps: rep.FollowUps,
		Failed: rep.Failed, Retries: rep.Retries, HedgedWins: rep.HedgedWins,
		Lost: rep.Lost, Crashes: rep.Crashes,
		TTFT: rep.TTFT, TPOT: rep.TPOT, E2E: rep.E2E,
		HitRate: rep.HitRate, WallClockMS: rep.WallClockMS,
		DegradedMS: rep.DegradedMS, InstHours: rep.InstanceHours,
	}
}

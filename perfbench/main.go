// Command perfbench is the FineMoE simulator's performance benchmark. It
// serves a seeded workload on a fresh simulated fleet, round after round
// for a fixed wall-clock budget, and reports what a user of the simulator
// pays per simulated request (wall time, heap allocations, peak heap) and
// per run set-up. With --trace 1 it instead splits a round's cost across
// the simulator's layers (see layers.go).
//
// Every invocation also checks the simulator's output: each round of a
// run must produce a byte-identical result, and the measured loop must
// agree with an equivalent run through another loop — materialized
// against streaming input, sharded against serial, and the fault scenario
// against the scenarios package on the sharded loop.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serial --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"finemoe/internal/cluster"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/scenarios"
	"finemoe/internal/walltime"
	"finemoe/internal/workload"
)

const (
	// minRounds is the fewest measured rounds a run reports medians over,
	// however short its budget.
	minRounds = 3
	// heapSample is the peak-heap sampling interval.
	heapSample = 10 * time.Millisecond
	// An untraced run times set-up in setupSamples samples, each
	// averaging as many builds as fit in setupSample: one build of a
	// Tiny-model fleet can take under a millisecond, too short to time
	// steadily on its own.
	setupSamples = 11
	setupSample  = 25 * time.Millisecond
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds of measured rounds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	traced := *trace == 1

	// The reference run comes first and doubles as warm-up.
	ref, err := referenceRun(w, *seed)
	if err != nil {
		return err
	}
	attempted, failed := ref.out.Offered, unserved(ref.out)

	budget := time.Duration(*seconds * float64(time.Second))
	clock := walltime.Start()
	var rounds []round
	for len(rounds) < minRounds || clock.Elapsed() < budget {
		r, err := runRound(w, *seed, traced)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		attempted += r.out.Offered
		failed += unserved(r.out)
	}

	correct := true
	for i, r := range rounds {
		if r.digest != rounds[0].digest || r.out != rounds[0].out {
			fmt.Fprintf(os.Stderr, "perfbench: round %d differs from round 0\n", i)
			correct = false
		}
	}
	if (ref.digest != nil && *ref.digest != rounds[0].digest) || ref.out != rounds[0].out {
		fmt.Fprintln(os.Stderr, "perfbench: result differs from the equivalent reference run")
		correct = false
	}

	var ms map[string]metric
	if traced {
		ms, err = layerMetrics(w, *seed, rounds)
		if err != nil {
			return err
		}
	} else {
		ms = endToEndMetrics(rounds, setupSeconds(w, *seed))
	}
	o := rounds[0].out
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds in %.1fs, each serving %d requests (%d follow-ups, %d crashes, %d retries); wall us/req:",
		*name, *seed, len(rounds), clock.Elapsed().Seconds(), o.Served, o.FollowUps, o.Crashes, o.Retries)
	for _, r := range rounds {
		fmt.Fprintf(os.Stderr, " %.1f", perReq(r, micros(r.wall)))
	}
	fmt.Fprintln(os.Stderr)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unserved counts a run's offered requests that never completed.
func unserved(o outcome) int { return max(0, o.Offered-o.Served) }

// refResult is the reference run's outcome and, for the cluster
// workloads, the digest of its full result.
type refResult struct {
	out    outcome
	digest *[sha256.Size]byte
}

// referenceRun runs the loop the measured one must agree with.
func referenceRun(w workloadSpec, seed uint64) (refResult, error) {
	if w.scenario {
		sc := scenarioSpec(seed)
		rep, err := scenarios.NewRunner(scenarioOptions(seed, 2)).Run(sc)
		if err != nil {
			return refResult{}, err
		}
		return refResult{out: reportOutcome(rep)}, nil
	}
	s := build(reference(w), seed, false)
	res := s.run()
	d, err := digest(res)
	return refResult{out: resultOutcome(res, s.openers), digest: &d}, err
}

func digest(res *cluster.Result) ([sha256.Size]byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("encoding result: %w", err)
	}
	return sha256.Sum256(b), nil
}

// round is one measured serve of the workload on a freshly built system.
type round struct {
	wall     time.Duration
	allocs   uint64
	gcs      uint32
	peakHeap uint64
	// liveHeap is the heap still reachable once the round ends: the
	// fleet, its results and its input.
	liveHeap uint64
	out      outcome
	digest   [sha256.Size]byte

	// Traced rounds only: the layer probes, the engines' cache and link
	// counters, and the standalone metrics-layer time.
	probes                          *probes
	evictions, prefetches, onDemand int
	summarize                       time.Duration
}

func runRound(w workloadSpec, seed uint64, traced bool) (round, error) {
	s := build(w, seed, traced)
	runtime.GC()
	var r round
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, gcs := ms.Mallocs, ms.NumGC
	heap := walltime.WatchHeap(heapSample)
	sw := walltime.Start()
	res := s.run()
	r.wall = sw.Elapsed()
	r.peakHeap = heap.Stop()
	runtime.ReadMemStats(&ms)
	r.allocs, r.gcs = ms.Mallocs-mallocs, ms.NumGC-gcs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(s)

	r.out = resultOutcome(res, s.openers)
	var err error
	if r.digest, err = digest(res); err != nil {
		return r, err
	}
	if traced {
		r.probes = s.probes
		var ttft, tpot, e2e metrics.Column
		sw = walltime.Start()
		for _, in := range res.Instances {
			r.evictions += in.Result.CacheStats.Evictions
			r.prefetches += in.Result.LinkStats.Prefetches
			r.onDemand += in.Result.LinkStats.OnDemands
			for _, q := range in.Result.Requests {
				ttft.Append(q.TTFTms)
				tpot.Append(q.TPOTms)
				e2e.Append(q.E2Ems)
			}
		}
		ttft.Summarize()
		tpot.Summarize()
		e2e.Summarize()
		r.summarize = sw.Elapsed()
	}
	return r, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of f over the rounds.
func median(rounds []round, f func(r round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// perReq converts a round total to a per-served-request figure.
func perReq(r round, x float64) float64 { return x / float64(r.out.Served) }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func endToEndMetrics(rounds []round, setup float64) map[string]metric {
	return map[string]metric{
		"wall_us_per_req": {median(rounds, func(r round) float64 { return perReq(r, micros(r.wall)) }), "us"},
		"allocs_per_req":  {median(rounds, func(r round) float64 { return perReq(r, float64(r.allocs)) }), "count"},
		"peak_heap_mb":    {median(rounds, func(r round) float64 { return float64(r.peakHeap) / (1 << 20) }), "MB"},
		"live_heap_mb":    {median(rounds, func(r round) float64 { return float64(r.liveHeap) / (1 << 20) }), "MB"},
		"setup_s":         {setup, "s"},
	}
}

// setupSeconds is the time to build the workload's system — the model,
// the input (the materialized trace, or the generator) and the fleet —
// as the median over setupSamples samples of the mean build time.
func setupSeconds(w workloadSpec, seed uint64) float64 {
	xs := make([]float64, setupSamples)
	for i := range xs {
		runtime.GC()
		n := 0
		sw := walltime.Start()
		for n == 0 || sw.Elapsed() < setupSample {
			build(w, seed, false)
			n++
		}
		xs[i] = sw.Elapsed().Seconds() / float64(n)
	}
	return medianOf(xs)
}

// layerMetrics reports the traced rounds' per-layer split, named
// <package>.<measure>. Times are µs per served request; the policy's
// time is summed over engines, so on the sharded loop it can exceed the
// round's wall time.
func layerMetrics(w workloadSpec, seed uint64, rounds []round) (map[string]metric, error) {
	gate, err := gateSimMicros(w, seed)
	if err != nil {
		return nil, err
	}
	us := func(f func(r round) time.Duration) metric {
		return metric{median(rounds, func(r round) float64 { return perReq(r, micros(f(r))) }), "us"}
	}
	count := func(f func(r round) int) metric {
		return metric{median(rounds, func(r round) float64 { return perReq(r, float64(f(r))) }), "count"}
	}
	return map[string]metric{
		"cluster.traced_wall_us": us(func(r round) time.Duration { return r.wall }),
		"workload.next_us":       us(func(r round) time.Duration { return r.probes.sourceBusy }),
		"cluster.route_us":       us(func(r round) time.Duration { return r.probes.routerBusy }),
		"core.policy_self_us": us(func(r round) time.Duration {
			t := r.probes.total()
			return t.hooks - t.transfer
		}),
		"serve.transfer_us":    us(func(r round) time.Duration { return r.probes.total().transfer }),
		"metrics.summarize_us": us(func(r round) time.Duration { return r.summarize }),
		"moe.gate_sim_us":      {gate, "us"},
		"core.policy_calls":    count(func(r round) int { return r.probes.total().calls }),
		"cache.scorer_calls":   count(func(r round) int { return r.probes.total().scores }),
		"cache.evictions":      count(func(r round) int { return r.evictions }),
		"cache.hit_rate":       {median(rounds, func(r round) float64 { return r.out.HitRate }), "ratio"},
		"memsim.prefetches":    count(func(r round) int { return r.prefetches }),
		"memsim.on_demand":     count(func(r round) int { return r.onDemand }),
		"runtime.gc_per_1k_req": {median(rounds, func(r round) float64 {
			return perReq(r, 1000*float64(r.gcs))
		}), "count"},
	}, nil
}

// gateSimMicros times the moe layer alone: simulating the gate traces of
// the first roundRequests requests the workload's input offers, with the
// recycling tracer the engine uses, in µs per request (median of
// minRounds passes).
func gateSimMicros(w workloadSpec, seed uint64) (float64, error) {
	m := moe.NewModel(moe.Tiny(), seed)
	s := build(w, seed, false)
	reqs := s.trace
	if reqs == nil {
		reqs = workload.Collect(s.src)
	}
	reqs = reqs[:min(len(reqs), roundRequests)]
	if len(reqs) == 0 {
		return 0, errors.New("workload offers no requests")
	}
	passes := make([]float64, minRounds)
	t := m.NewTracer()
	var slot []*moe.Iteration
	for i := range passes {
		sw := walltime.Start()
		for _, q := range reqs {
			its := t.Trace(q.PromptSpec, slot)
			t.Recycle(its)
			slot = its[:0]
		}
		passes[i] = micros(sw.Elapsed()) / float64(len(reqs))
	}
	return medianOf(passes), nil
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/walltime"
	"finemoe/internal/workload"
)

// clusterBenchRun is one input form's measurement in the committed
// BENCH_cluster.json baseline. Mode "trace" consumes a fully
// materialized request slice; mode "stream" consumes the same workload
// through a generator-backed workload.Source — byte-identical results,
// streaming memory footprint.
type clusterBenchRun struct {
	Mode   string  `json:"mode"`
	WallMS float64 `json:"wall_ms"`
	// ByteParity reports whether the run's full result has the trace
	// run's SHA-256 digest (the trace run is its own reference).
	ByteParity bool `json:"byte_parity_vs_trace"`
	// PeakHeapBytes is the largest HeapAlloc a background sampler saw
	// during the run, which starts from a collected heap; GCCycles and
	// AllocsPerRequest are the run's GC count and heap-object allocation
	// deltas (steady-state allocation discipline shows up here, not in
	// wall time alone).
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	GCCycles         uint32  `json:"gc_cycles"`
	AllocsPerRequest float64 `json:"allocs_per_request"`
}

// clusterBenchHorizon records the long-horizon streaming run: a request
// count far past what a materialized trace comfortably holds, driven
// end-to-end through the generator path.
type clusterBenchHorizon struct {
	Requests         int     `json:"requests"`
	Served           int     `json:"served"`
	WallMS           float64 `json:"wall_ms"`
	SimulatedMS      float64 `json:"simulated_wall_ms"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	GCCycles         uint32  `json:"gc_cycles"`
	AllocsPerRequest float64 `json:"allocs_per_request"`
}

// clusterBenchBaseline is the artifact's top-level schema. NumCPU and
// GOMAXPROCS are recorded because they decide whether the gate-trace
// pipeline runs: it needs a second CPU.
type clusterBenchBaseline struct {
	GeneratedBy   string               `json:"generated_by"`
	GoVersion     string               `json:"go_version"`
	GOOS          string               `json:"goos"`
	GOARCH        string               `json:"goarch"`
	NumCPU        int                  `json:"num_cpu"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Model         string               `json:"model"`
	Instances     int                  `json:"instances"`
	Requests      int                  `json:"requests"`
	Arrival       string               `json:"arrival"`
	Served        int                  `json:"served"`
	FollowUps     int                  `json:"follow_ups"`
	SimulatedMS   float64              `json:"simulated_wall_ms"`
	Runs          []clusterBenchRun    `json:"runs"`
	StreamHorizon *clusterBenchHorizon `json:"stream_horizon,omitempty"`
}

// clusterBenchFleet builds one fresh fleet for a bench run: Tiny-model
// FineMoE instances on the paper's testbed GPU, least-loaded routing.
func clusterBenchFleet(m *moe.Model, instances int) *cluster.Cluster {
	cfg := m.Cfg
	engines := make([]*serve.Engine, instances)
	for i := range engines {
		pol := core.NewFineMoE(core.NewStore(cfg, 50, cfg.OptimalPrefetchDistance), core.Options{})
		engines[i] = serve.New(serve.Options{
			Model: m, GPU: memsim.RTX3090(), NumGPUs: 1, Policy: pol,
		})
	}
	return cluster.New(cluster.Options{
		Engines: engines,
		Router:  cluster.NewLeastLoaded(),
	})
}

// clusterBenchDataset is the fixed bench workload shape.
func clusterBenchDataset() workload.Dataset {
	return workload.Dataset{
		Name: "clusterbench", Topics: 8, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: 11,
	}
}

// memProbe captures the allocation counters a bench run is charged for.
type memProbe struct {
	watch   *walltime.HeapWatch
	mallocs uint64
	numGC   uint32
}

// startMemProbe collects the heap first, so a run's peak counts only
// what is live for that run and not garbage an earlier run left behind.
func startMemProbe() *memProbe {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &memProbe{
		watch:   walltime.WatchHeap(50 * time.Millisecond),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
}

// stop charges the run's deltas into dst, amortized over n requests.
func (p *memProbe) stop(dst *clusterBenchRun, n int) {
	peak := p.watch.Stop()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	dst.PeakHeapBytes = peak
	dst.GCCycles = ms.NumGC - p.numGC
	dst.AllocsPerRequest = float64(ms.Mallocs-p.mallocs) / float64(n)
}

// clusterBenchOutcome is what a bench run keeps of its result: the
// result's digest and the counts the baseline reports. The result
// itself, which holds every request's metrics, is dropped before the
// next run so that run's peak heap does not count it.
type clusterBenchOutcome struct {
	digest      [sha256.Size]byte
	served      int
	followUps   int
	simulatedMS float64
}

// measureClusterBench serves src on a fresh fleet and measures the run.
func measureClusterBench(m *moe.Model, instances, n int, mode string, src workload.Source) (clusterBenchRun, clusterBenchOutcome, error) {
	c := clusterBenchFleet(m, instances)
	run := clusterBenchRun{Mode: mode}
	probe := startMemProbe()
	watch := walltime.Start()
	res := c.RunStream(src)
	run.WallMS = float64(watch.Elapsed().Microseconds()) / 1000
	probe.stop(&run, n)
	b, err := json.Marshal(res)
	out := clusterBenchOutcome{
		digest:      sha256.Sum256(b),
		served:      res.Served,
		followUps:   res.FollowUps,
		simulatedMS: res.WallClockMS,
	}
	return run, out, err
}

// runClusterBench drives the cluster loop benchmark: one bursty MMPP
// workload of n requests over a fixed fleet, served once from a
// materialized trace and once from the generator-backed stream. The
// stream run's full ClusterResult must have the trace run's digest — a
// parity failure aborts the benchmark — and the wall time plus memory
// columns land in the JSON baseline at path. Each run starts from a
// collected heap and holds only its own input, so the peak-heap column
// compares the two input forms. A positive horizon adds a
// streaming-only long-horizon run of that many requests (never
// materialized: at 10M requests the trace alone would hold ~10⁷ request
// records plus embeddings, which is the case the streaming path exists
// for).
func runClusterBench(path string, n, instances, horizon int) error {
	if n <= 0 || instances <= 0 {
		return fmt.Errorf("need positive request count and fleet size (got %d, %d)", n, instances)
	}
	m := moe.NewModel(moe.Tiny(), 42)
	arrivals := workload.BurstyMMPP(8 * float64(instances))
	d := clusterBenchDataset()
	opt := workload.OnlineOptions{Arrivals: arrivals, N: n, Seed: 42}

	out := &clusterBenchBaseline{
		GeneratedBy: "finemoe-bench -clusterbench",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Model:       m.Cfg.Name,
		Instances:   instances,
		Requests:    n,
		Arrival:     arrivals.Name(),
	}

	// The materialized trace lives only in the trace run's source, so
	// the stream run that follows does not hold it.
	traceRun, ref, err := measureClusterBench(m, instances, n, "trace",
		workload.NewSliceSource(workload.OnlineTrace(d, m.Cfg.SemDim, opt)))
	if err != nil {
		return err
	}
	traceRun.ByteParity = true
	out.Served = ref.served
	out.FollowUps = ref.followUps
	out.SimulatedMS = ref.simulatedMS

	streamRun, got, err := measureClusterBench(m, instances, n, "stream",
		workload.StreamOnline(d, m.Cfg.SemDim, opt))
	if err != nil {
		return err
	}
	streamRun.ByteParity = got.digest == ref.digest
	if !streamRun.ByteParity {
		return fmt.Errorf("stream run diverged from the trace run (result digests %x vs %x)", got.digest, ref.digest)
	}
	out.Runs = []clusterBenchRun{traceRun, streamRun}

	if horizon > 0 {
		h, err := runClusterBenchHorizon(m, d, arrivals, instances, horizon)
		if err != nil {
			return err
		}
		out.StreamHorizon = h
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// progressSource wraps a Source and reports generator progress to
// stderr every interval requests — a 10M-request horizon run is tens of
// minutes of otherwise silent wall time, and the per-segment rates make
// throughput drift (machine thermal state, backlog effects) visible.
type progressSource struct {
	src      workload.Source
	n        int
	interval int
	watch    walltime.Stopwatch
	lastMS   float64
}

func (p *progressSource) Next() (workload.Request, bool) {
	q, ok := p.src.Next()
	if ok {
		p.n++
		if p.interval > 0 && p.n%p.interval == 0 {
			now := float64(p.watch.Elapsed().Microseconds()) / 1000
			fmt.Fprintf(os.Stderr, "clusterbench: horizon %d requests drawn (segment %.1f us/req)\n",
				p.n, (now-p.lastMS)*1000/float64(p.interval))
			p.lastMS = now
		}
	}
	return q, ok
}

// runClusterBenchHorizon runs the streaming-only long-horizon case and
// reports throughput plus memory discipline.
func runClusterBenchHorizon(m *moe.Model, d workload.Dataset, arrivals workload.ArrivalProcess, instances, horizon int) (*clusterBenchHorizon, error) {
	c := clusterBenchFleet(m, instances)
	var src workload.Source = workload.StreamOnline(d, m.Cfg.SemDim, workload.OnlineOptions{
		Arrivals: arrivals, N: horizon, Seed: 42,
	})
	if horizon >= 1_000_000 {
		src = &progressSource{src: src, interval: horizon / 10, watch: walltime.Start()}
	}
	var run clusterBenchRun
	probe := startMemProbe()
	watch := walltime.Start()
	res := c.RunStream(src)
	wall := float64(watch.Elapsed().Microseconds()) / 1000
	probe.stop(&run, horizon)
	if res.Served != horizon {
		return nil, fmt.Errorf("stream horizon served %d of %d requests", res.Served, horizon)
	}
	return &clusterBenchHorizon{
		Requests:         horizon,
		Served:           res.Served,
		WallMS:           wall,
		SimulatedMS:      res.WallClockMS,
		PeakHeapBytes:    run.PeakHeapBytes,
		GCCycles:         run.GCCycles,
		AllocsPerRequest: run.AllocsPerRequest,
	}, nil
}

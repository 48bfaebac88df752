package experiments

import (
	"fmt"

	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/par"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

func init() {
	register("clusterfig",
		"Cluster routing: round-robin vs least-loaded vs semantic affinity under an Azure-trace load sweep",
		runClusterFig)
}

// clusterInstances is the fleet size of the routing comparison (matching
// the acceptance setup: a 4-instance cluster).
const clusterInstances = 4

// clusterRouters enumerates the comparison, fresh state per run.
func clusterRouters() []struct {
	name string
	mk   func() cluster.Router
} {
	return []struct {
		name string
		mk   func() cluster.Router
	}{
		{"round-robin", cluster.NewRoundRobin},
		{"least-loaded", cluster.NewLeastLoaded},
		{"semantic-affinity", func() cluster.Router {
			return cluster.NewSemanticAffinity(cluster.SemanticAffinityOptions{})
		}},
	}
}

// clusterEngines builds a fresh fleet of n FineMoE instances with empty
// Expert Map Stores (the online protocol: stores warm as the trace flows,
// so routing decides which instance learns which prompts).
func clusterEngines(c *Context, cfg moe.Config, n int) []*serve.Engine {
	engines := make([]*serve.Engine, n)
	for i := range engines {
		pol := core.NewFineMoE(
			core.NewStore(cfg, c.Scale.StoreCapacity, cfg.OptimalPrefetchDistance),
			core.Options{})
		engines[i] = serve.New(serve.Options{
			Model: c.Model(cfg), GPU: c.GPU, NumGPUs: c.NumGPUs,
			Policy: pol,
		})
	}
	return engines
}

// clusterTrace samples an Azure-style trace at a multiple of the scale's
// base arrival rate, with the scale's token clamps.
func clusterTrace(c *Context, cfg moe.Config, mult float64) []workload.Request {
	ds := c.dataset(workload.LMSYSChat1M())
	trace := workload.AzureTrace(ds, cfg.SemDim, workload.TraceConfig{
		RatePerSec: c.Scale.OnlineRate * mult,
		N:          c.Scale.OnlineRequests,
		Seed:       c.Seed,
	})
	return c.clampLens(trace)
}

// runClusterFig compares the three routing policies on a 4-instance
// cluster under increasing load. Round-robin scatters each semantic topic
// across every instance, so all four Expert Map Stores must learn the full
// prompt population; semantic affinity concentrates each topic on one
// instance, whose store (and expert cache) has already seen it — raising
// the fleet hit rate and cutting latency, the fleet-level analogue of the
// paper's semantic-search argument (§4.2).
func runClusterFig(c *Context) (*Output, error) {
	cfg := paperModels()[0] // Mixtral-8x7B, the paper's lead model
	c.Model(cfg)            // warm the memoized simulator before fanning out
	routers := clusterRouters()
	type job struct {
		mult   float64
		trace  []workload.Request
		router int
	}
	var jobs []job
	for _, mult := range []float64{1, 2, 4} {
		// One trace per load multiplier, shared read-only by the three
		// router cells (RunTrace copies requests by value).
		trace := clusterTrace(c, cfg, mult)
		for ri := range routers {
			jobs = append(jobs, job{mult, trace, ri})
		}
	}
	// Every (load, router) cell is an independent fleet; run them on the
	// bounded worker pool and emit rows in sweep order, so the table is
	// byte-identical to the serial sweep.
	results := make([]*cluster.Result, len(jobs))
	par.ForEach(c.Workers, len(jobs), func(i int) {
		j := jobs[i]
		cl := cluster.New(cluster.Options{
			Engines:   clusterEngines(c, cfg, clusterInstances),
			Admission: cluster.NewAlwaysAdmit(),
			Router:    routers[j.router].mk(),
		})
		results[i] = cl.RunTrace(j.trace)
	})
	t := metrics.NewTable("load_mult", "router", "ttft_s", "p99_ttft_s", "tpot_s", "hit_rate", "rejected")
	for i, j := range jobs {
		res := results[i]
		t.Row(fmt.Sprintf("%.0fx", j.mult), routers[j.router].name,
			metrics.Seconds(res.MeanTTFT), metrics.Seconds(res.TTFT.P99),
			metrics.Seconds(res.MeanTPOT),
			fmt.Sprintf("%.3f", res.HitRate), res.Rejected)
	}
	return &Output{ID: "clusterfig",
		Title: "Cluster routing policies, 4-instance fleet (LMSYS, Azure-style arrivals)",
		Table: t,
		Notes: []string{
			"expected shape: semantic-affinity hit rate > round-robin at every load",
			"expected shape: least-loaded TTFT <= round-robin as load grows",
		}}, nil
}

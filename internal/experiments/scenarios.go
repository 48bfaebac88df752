package experiments

import (
	"fmt"

	"finemoe/internal/metrics"
	"finemoe/internal/scenarios"
	"finemoe/internal/workload"
)

func init() {
	register("scenariofig",
		"Scenario gauntlet: bursty/diurnal/flash/session/multi-tenant workloads across fixed and autoscaled fleets",
		runScenarioFig)
}

// scenarioFleets enumerates the two fleets every workload shape is run
// on: the naive baseline (a fixed fleet scattering topics round-robin)
// and the full stack (queue-pressure autoscaling plus semantic-affinity
// routing). Both start at the same size, so the comparison isolates what
// elasticity and affinity buy under each traffic shape.
func scenarioFleets() []scenarios.FleetSpec {
	return []scenarios.FleetSpec{
		{Instances: 2, Router: "round-robin"},
		// The aggressive tick/sustain pairing from the autoscalefig
		// experiment: scale-up must keep pace with the sweep's
		// sub-second bursts.
		{Instances: 2, Router: "semantic-affinity", Autoscale: true,
			MinInstances: 1, MaxInstances: 4,
			HighWatermark: 1.5, LowWatermark: 1.0,
			SustainMS: 50, CooldownMS: 50, TickMS: 25},
	}
}

// scenarioMatrix builds the gauntlet: every arrival shape at the scale's
// base rate, plus a closed-loop session workload and a two-tenant mix.
func scenarioMatrix(c *Context) []scenarios.Scenario {
	ds := c.dataset(workload.LMSYSChat1M())
	rate := c.Scale.OnlineRate
	n := c.Scale.OnlineRequests
	shapes := []workload.ArrivalProcess{
		workload.Poisson{RatePerSec: rate},
		workload.BurstyMMPP(rate),
		workload.DiurnalSwing(rate),
		workload.FlashSpike(rate),
	}
	var out []scenarios.Scenario
	for _, ap := range shapes {
		for _, fl := range scenarioFleets() {
			out = append(out, scenarios.Scenario{
				Name:     ap.Name(),
				Workload: scenarios.WorkloadSpec{Dataset: ds, Arrivals: ap, Requests: n},
				Fleet:    fl,
			})
		}
	}
	// Closed-loop multi-turn sessions: follow-ups arrive after their
	// parent completes and stay semantically close to it, exercising
	// Expert Map Store reuse and semantic-affinity routing.
	sess := &workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 1.0 / rate * 4, Drift: 0.05}
	for _, fl := range scenarioFleets() {
		out = append(out, scenarios.Scenario{
			Name: "sessions",
			Workload: scenarios.WorkloadSpec{
				Dataset:  ds,
				Arrivals: workload.Poisson{RatePerSec: rate / 2},
				Requests: n / 2,
				Sessions: sess,
			},
			Fleet: fl,
		})
	}
	// Two tenants with distinct datasets and traffic shapes sharing one
	// fleet: a steady LMSYS tenant plus a bursty ShareGPT tenant.
	tenants := []workload.TenantSpec{
		{Name: "steady", Dataset: ds,
			Arrivals: workload.Poisson{RatePerSec: rate / 2}, N: n / 2},
		{Name: "bursty", Dataset: c.dataset(workload.ShareGPT()),
			Arrivals: workload.BurstyMMPP(rate / 2), N: n / 2},
	}
	for _, fl := range scenarioFleets() {
		out = append(out, scenarios.Scenario{
			Name:     "two-tenant",
			Workload: scenarios.WorkloadSpec{Tenants: tenants},
			Fleet:    fl,
		})
	}
	return out
}

// scenarioRunner builds the runner on the context's model and testbed.
func scenarioRunner(c *Context) *scenarios.Runner {
	return scenarios.NewRunner(scenarios.Options{
		Model: paperModels()[0], // Mixtral-8x7B, the paper's lead model
		GPU:   c.GPU, NumGPUs: c.NumGPUs,
		StoreCapacity: c.Scale.StoreCapacity,
		MaxInput:      c.Scale.MaxInput, MaxOutput: c.Scale.MaxOutput,
		Seed:    c.Seed,
		Workers: c.Workers,
	})
}

// runScenarioFig sweeps the scenario gauntlet. The headline is the bursty
// row pair: under MMPP bursts the autoscaled semantic-affinity fleet
// grows through the bursts and keeps topic locality, holding p99 TTFT
// below the fixed round-robin fleet that both scatters topics and cannot
// add capacity — the fleet-level composition of the paper's semantic
// argument with MoEless's elasticity argument.
func runScenarioFig(c *Context) (*Output, error) {
	reports, err := scenarioRunner(c).RunMatrix(scenarioMatrix(c))
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("scenario", "fleet", "requests", "served",
		"p99_ttft_s", "ttft_s", "hit_rate", "dispersion", "peak", "inst_h")
	for _, rep := range reports {
		t.Row(rep.Scenario, rep.Fleet, rep.Requests, rep.Served,
			metrics.Seconds(rep.TTFT.P99), metrics.Seconds(rep.TTFT.Mean),
			fmt.Sprintf("%.3f", rep.HitRate), fmt.Sprintf("%.2f", rep.Dispersion),
			rep.PeakInstances, fmt.Sprintf("%.5f", rep.InstanceHours))
	}
	return &Output{ID: "scenariofig",
		Title: "Scenario gauntlet across fixed round-robin and autoscaled semantic-affinity fleets",
		Table: t,
		Notes: []string{
			"headline: mmpp p99 TTFT — autoscaled semantic-affinity < fixed round-robin",
			"dispersion column: poisson ≈ 1, bursty shapes > 1",
			"sessions rows include closed-loop follow-up turns (requests > trace length)",
			"two-tenant rows partition per-tenant latency in the scenario reports",
		}}, nil
}

package experiments

import (
	"fmt"
	"sort"

	"finemoe/internal/memsim"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/workload"
)

func init() {
	register("fig10", "Fig 10: offline serving TTFT/TPOT/hit rate, 5 systems", runFig10)
	register("fig11", "Fig 11: online serving request-latency CDF", runFig11)
	register("fig12", "Fig 12: TPOT under varying expert cache limits", runFig12)
	register("fig13", "Fig 13: performance on a high-end GPU (A100)", runFig13)
	register("fig16b", "Fig 16b: performance vs inference batch size", runFig16b)
	register("fig17", "Fig 17: per-iteration latency breakdown of FineMoE", runFig17)
}

// runFig10 reproduces the headline offline comparison: TTFT, TPOT and
// expert hit rate for the five systems across three models and both
// datasets.
func runFig10(c *Context) (*Output, error) {
	t := metrics.NewTable("dataset", "model", "system", "ttft_s", "tpot_s", "hit_rate")
	for _, ds := range paperDatasets() {
		for _, cfg := range paperModels() {
			for _, sys := range paperSystems(c, cfg, ds, true) {
				res := runOffline(c, cfg, ds, sys, defaultBatchSize)
				t.Row(ds.Name, cfg.Name, sys.name,
					metrics.Seconds(res.MeanTTFT), metrics.Seconds(res.MeanTPOT),
					fmt.Sprintf("%.3f", res.HitRate))
			}
		}
	}
	return &Output{ID: "fig10", Title: "Offline serving performance", Table: t,
		Notes: []string{
			"paper shape: latency FineMoE < MoE-Infinity < ProMoE < Mixtral-Offload < DeepSpeed",
			"paper shape: hit rate DeepSpeed(1.0) > FineMoE > Mixtral-Offload > ProMoE > MoE-Infinity",
		}}, nil
}

// runFig11 reproduces the online serving experiment: empty stores, trace
// arrivals, end-to-end request latency CDF per system and model.
func runFig11(c *Context) (*Output, error) {
	ds := workload.LMSYSChat1M()
	t := metrics.NewTable("model", "system", "p25_s", "p50_s", "p75_s", "p90_s", "p99_s", "mean_s")
	var plots []string
	for _, cfg := range paperModels() {
		plot := metrics.NewPlot(fmt.Sprintf("Fig 11 — request latency CDF, %s", cfg.Name), "latency (s)", "fraction")
		for _, sys := range paperSystems(c, cfg, ds, false) {
			res := runOnline(c, cfg, ds, sys)
			lat := make([]float64, 0, len(res.Requests))
			for _, r := range res.Requests {
				lat = append(lat, r.E2Ems/1000)
			}
			sort.Float64s(lat)
			t.Row(cfg.Name, sys.name,
				metrics.Seconds(1000*metrics.Percentile(lat, 0.25)),
				metrics.Seconds(1000*metrics.Percentile(lat, 0.50)),
				metrics.Seconds(1000*metrics.Percentile(lat, 0.75)),
				metrics.Seconds(1000*metrics.Percentile(lat, 0.90)),
				metrics.Seconds(1000*metrics.Percentile(lat, 0.99)),
				metrics.Seconds(1000*metrics.Summarize(lat).Mean))
			plot.Add(metrics.CDFSeries(sys.name, lat))
		}
		plots = append(plots, plot.String())
	}
	return &Output{ID: "fig11", Title: "Online serving request latency CDF (Azure-style trace)", Table: t,
		Plots: plots,
		Notes: []string{"paper shape: FineMoE's CDF sits left of every baseline for all three models"}}, nil
}

// fig12Budgets returns the paper's cache-limit sweep in bytes.
func fig12Budgets() []int64 {
	gb := int64(1) << 30
	return []int64{6 * gb, 12 * gb, 24 * gb, 48 * gb, 96 * gb}
}

// runFig12 sweeps the expert-cache budget, giving every system the same
// limit (unlike Fig 10's natural operating points).
func runFig12(c *Context) (*Output, error) {
	ds := workload.LMSYSChat1M()
	budgets := fig12Budgets()
	headers := []string{"model", "system"}
	for _, b := range budgets {
		headers = append(headers, fmt.Sprintf("tpot_s@%dGB", b>>30))
	}
	t := metrics.NewTable(headers...)
	var plots []string
	for _, cfg := range paperModels() {
		plot := metrics.NewPlot(fmt.Sprintf("Fig 12 — TPOT vs expert cache limit, %s", cfg.Name), "cache (GB)", "tpot (s)")
		for _, sys := range paperSystems(c, cfg, ds, true) {
			row := []any{cfg.Name, sys.name}
			series := metrics.Series{Name: sys.name}
			for _, b := range budgets {
				s := sys
				s.cacheBytes = b
				if b > cfg.TotalExpertBytes() {
					s.cacheBytes = cfg.TotalExpertBytes()
				}
				res := runOffline(c, cfg, ds, s, defaultBatchSize)
				row = append(row, metrics.Seconds(res.MeanTPOT))
				series.X = append(series.X, float64(b>>30))
				series.Y = append(series.Y, res.MeanTPOT/1000)
			}
			t.Row(row...)
			plot.Add(series)
		}
		plots = append(plots, plot.String())
	}
	return &Output{ID: "fig12", Title: "TPOT under varying expert cache limits", Table: t,
		Plots: plots,
		Notes: []string{
			"paper shape: FineMoE lowest TPOT at every budget; gaps narrow as the cache grows",
			"paper: at 6GB FineMoE cuts TPOT by 36/25/16/29% vs DeepSpeed/Mixtral-Offload/ProMoE/MoE-Infinity",
		}}, nil
}

// runFig13 repeats the offline comparison on a single A100-80GB (no expert
// parallelism), where faster inference shrinks — but does not close — the
// gaps.
func runFig13(c *Context) (*Output, error) {
	ds := workload.LMSYSChat1M()
	a100 := NewContext(c.Scale, c.Seed)
	a100.GPU = memsim.A100()
	a100.NumGPUs = 1
	t := metrics.NewTable("model", "system", "ttft_s", "tpot_s", "hit_rate")
	for _, cfg := range paperModels() {
		for _, sys := range paperSystems(a100, cfg, ds, true) {
			res := runOffline(a100, cfg, ds, sys, defaultBatchSize)
			t.Row(cfg.Name, sys.name, metrics.Seconds(res.MeanTTFT),
				metrics.Seconds(res.MeanTPOT), fmt.Sprintf("%.3f", res.HitRate))
		}
	}
	return &Output{ID: "fig13", Title: "High-end GPU testbed (1x A100-80GB)", Table: t,
		Notes: []string{"paper shape: FineMoE still best everywhere; smaller gains than on 6x3090; hit rates barely change"}}, nil
}

// runFig16b sweeps the inference batch size on Mixtral + LMSYS for the four
// prefetching systems.
func runFig16b(c *Context) (*Output, error) {
	cfg := moe.Mixtral8x7B()
	ds := workload.LMSYSChat1M()
	batches := []int{1, 2, 4, 8}
	headers := []string{"system", "metric"}
	for _, b := range batches {
		headers = append(headers, fmt.Sprintf("B=%d", b))
	}
	t := metrics.NewTable(headers...)
	for _, sys := range paperSystems(c, cfg, ds, true) {
		if sys.name == "DeepSpeed" {
			continue // Fig 16b compares the four prefetching systems
		}
		ttftRow := []any{sys.name, "ttft_s"}
		tpotRow := []any{sys.name, "tpot_s"}
		for _, b := range batches {
			res := runOffline(c, cfg, ds, sys, b)
			ttftRow = append(ttftRow, metrics.Seconds(res.MeanTTFT))
			tpotRow = append(tpotRow, metrics.Seconds(res.MeanTPOT))
		}
		t.Row(ttftRow...)
		t.Row(tpotRow...)
	}
	return &Output{ID: "fig16b", Title: "Performance vs inference batch size (Mixtral, LMSYS)", Table: t,
		Notes: []string{"paper shape: FineMoE achieves the lowest TTFT and TPOT in most batch sizes"}}, nil
}

// runFig17 reports FineMoE's per-iteration latency breakdown per model,
// separating synchronous (inference, on-demand load) from asynchronous
// (context collection, map match, prefetch, map update) components.
func runFig17(c *Context) (*Output, error) {
	ds := workload.LMSYSChat1M()
	comps := []policy.Component{
		policy.CompCollect, policy.CompInfer, policy.CompMapMatch,
		policy.CompLoad, policy.CompUpdate, policy.CompPredict,
	}
	async := map[policy.Component]bool{
		policy.CompCollect:  true,
		policy.CompMapMatch: true,
		policy.CompUpdate:   true,
	}
	headers := []string{"model", "total_iter_ms"}
	for _, comp := range comps {
		headers = append(headers, comp.String())
	}
	t := metrics.NewTable(headers...)
	for _, cfg := range paperModels() {
		sys := paperSystems(c, cfg, ds, true)[0] // FineMoE
		res := runOffline(c, cfg, ds, sys, defaultBatchSize)
		var iterMS float64
		row := []any{cfg.Name}
		for _, comp := range comps {
			if !async[comp] {
				iterMS += res.Breakdown[comp.String()]
			}
		}
		row = append(row, iterMS)
		for _, comp := range comps {
			tag := ""
			if async[comp] {
				tag = " (async)"
			}
			row = append(row, fmt.Sprintf("%.2f%s", res.Breakdown[comp.String()], tag))
		}
		t.Row(row...)
	}
	return &Output{ID: "fig17", Title: "FineMoE per-iteration latency breakdown", Table: t,
		Notes: []string{
			"asynchronous components (collect/map match/map update) do not contribute to end-to-end iteration latency (§6.8)",
			"paper: synchronous non-inference overhead stays below 50 ms per iteration",
		}}, nil
}

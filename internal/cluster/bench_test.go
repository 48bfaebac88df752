package cluster

import (
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/workload"
)

// BenchmarkClusterLoop measures the shared-clock loop on a scaled-down
// cut of cmd/finemoe-bench -clusterbench (the committed
// BENCH_cluster.json runs the same shape at 32 instances and 1M
// requests); CI smokes it at -benchtime 1x so harness rot is caught
// without paying full benchmark time.
func BenchmarkClusterLoop(b *testing.B) {
	const instances = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := moe.NewModel(moe.Tiny(), 42)
		trace := workload.OnlineTrace(workload.Dataset{
			Name: "clusterbench", Topics: 8, TopicSpread: 0.05,
			MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: 11,
		}, m.Cfg.SemDim, workload.OnlineOptions{
			Arrivals: workload.BurstyMMPP(8 * instances), N: 512, Seed: 42,
		})
		c := New(Options{Engines: testEngines(m, instances), Router: NewLeastLoaded()})
		b.StartTimer()
		res := c.RunTrace(trace)
		if res.Served != len(trace) {
			b.Fatalf("served %d/%d", res.Served, len(trace))
		}
	}
}

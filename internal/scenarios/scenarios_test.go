package scenarios

import (
	"strings"
	"testing"

	"finemoe/internal/cluster"
	"finemoe/internal/faults"
	"finemoe/internal/moe"
	"finemoe/internal/workload"
)

// testRunner builds a runner over the tiny model with tight token clamps
// so every scenario finishes in milliseconds.
func testRunner(seed uint64) *Runner {
	return NewRunner(Options{
		Model: moe.Tiny(), NumGPUs: 2, StoreCapacity: 100,
		MaxInput: 8, MaxOutput: 8, Seed: seed,
	})
}

func testDataset() workload.Dataset {
	return workload.LMSYSChat1M()
}

// TestRunPlainScenario: the basic workload × fleet cell runs end to end
// and accounts for every request.
func TestRunPlainScenario(t *testing.T) {
	rep, err := testRunner(1).Run(Scenario{
		Name: "plain",
		Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.Poisson{RatePerSec: 10},
			Requests: 16,
		},
		Fleet: FleetSpec{Instances: 2, Router: "least-loaded"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 16 || rep.Served != 16 || rep.Rejected != 0 {
		t.Fatalf("accounting wrong: %+v", rep)
	}
	if rep.TTFT.Mean <= 0 || rep.HitRate <= 0 {
		t.Fatalf("degenerate metrics: %+v", rep)
	}
	if rep.Fleet != "fixed-2/least-loaded" || rep.Workload != "poisson" {
		t.Fatalf("labels wrong: %q / %q", rep.Fleet, rep.Workload)
	}
}

// TestRunSessionScenario: closed-loop sessions inject follow-ups and the
// report counts them on top of the trace.
func TestRunSessionScenario(t *testing.T) {
	rep, err := testRunner(1).Run(Scenario{
		Name: "sess",
		Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.Poisson{RatePerSec: 10},
			Requests: 12,
			Sessions: &workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 0.1, Drift: 0.05},
		},
		Fleet: FleetSpec{Instances: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FollowUps == 0 {
		t.Fatal("session scenario injected no follow-ups")
	}
	if rep.Requests != 12+rep.FollowUps || rep.Served != rep.Requests {
		t.Fatalf("session accounting wrong: %+v", rep)
	}
}

// TestRunTenantScenario: the per-tenant partition is exact — tenant
// requests and served counts sum to the fleet totals.
func TestRunTenantScenario(t *testing.T) {
	rep, err := testRunner(1).Run(Scenario{
		Name: "tenants",
		Workload: WorkloadSpec{
			Tenants: []workload.TenantSpec{
				{Name: "a", Dataset: testDataset(),
					Arrivals: workload.Poisson{RatePerSec: 6}, N: 10},
				{Name: "b", Dataset: workload.ShareGPT(),
					Arrivals: workload.BurstyMMPP(6), N: 8},
			},
		},
		Fleet: FleetSpec{Instances: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant partition has %d entries", len(rep.Tenants))
	}
	reqs, served := 0, 0
	for _, tr := range rep.Tenants {
		reqs += tr.Requests
		served += tr.Served
		if tr.Served > 0 && tr.MeanTTFT <= 0 {
			t.Fatalf("tenant with served requests has no latency: %+v", tr)
		}
	}
	if reqs != rep.Requests || served != rep.Served {
		t.Fatalf("tenant partition not exact: %d/%d vs fleet %d/%d",
			reqs, served, rep.Requests, rep.Served)
	}
}

// TestRunAutoscaledScenario: the autoscaled fleet resizes and reports it.
func TestRunAutoscaledScenario(t *testing.T) {
	rep, err := testRunner(1).Run(Scenario{
		Name: "auto",
		Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.BurstyMMPP(20),
			Requests: 32,
		},
		Fleet: FleetSpec{Instances: 1, Router: "semantic-affinity",
			Autoscale: true, MinInstances: 1, MaxInstances: 4,
			HighWatermark: 1.5, LowWatermark: 1.0,
			SustainMS: 20, CooldownMS: 20, TickMS: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakInstances < 2 || rep.Resizes == 0 {
		t.Fatalf("burst did not trigger autoscaling: peak %d, %d resizes",
			rep.PeakInstances, rep.Resizes)
	}
	if rep.Fleet != "auto[1..4]/semantic-affinity" {
		t.Fatalf("fleet label %q", rep.Fleet)
	}
}

// TestReportSerializeDeterminism: the golden contract — two runs of the
// same scenario matrix serialize byte-identically, and the serialized
// form carries the per-tenant partition in sorted order.
func TestReportSerializeDeterminism(t *testing.T) {
	matrix := []Scenario{
		{Name: "plain", Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.BurstyMMPP(10), Requests: 12},
			Fleet: FleetSpec{Instances: 2, Router: "round-robin"}},
		{Name: "tenants", Workload: WorkloadSpec{
			Tenants: []workload.TenantSpec{
				{Name: "a", Dataset: testDataset(),
					Arrivals: workload.Poisson{RatePerSec: 6}, N: 6},
				{Name: "b", Dataset: workload.ShareGPT(),
					Arrivals: workload.FlashSpike(6), N: 6},
			}},
			Fleet: FleetSpec{Instances: 1, Autoscale: true, MaxInstances: 2}},
	}
	serialize := func() string {
		reps, err := testRunner(9).RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, rep := range reps {
			b.WriteString(rep.Serialize())
			b.WriteString("---\n")
		}
		return b.String()
	}
	a, b := serialize(), serialize()
	if a != b {
		t.Fatalf("scenario reports not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "tenant.a=") || !strings.Contains(a, "tenant.b=") {
		t.Fatalf("serialized report missing tenant partition:\n%s", a)
	}
	// A different seed must change the serialized outcome.
	reps, err := testRunner(10).RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	var c strings.Builder
	for _, rep := range reps {
		c.WriteString(rep.Serialize())
		c.WriteString("---\n")
	}
	if a == c.String() {
		t.Fatal("different seeds serialized identically")
	}
}

// TestRunValidation: malformed scenarios error instead of panicking.
func TestRunValidation(t *testing.T) {
	r := testRunner(1)
	for _, sc := range []Scenario{
		{Name: "no-fleet", Workload: WorkloadSpec{
			Dataset: testDataset(), Arrivals: workload.Poisson{RatePerSec: 1}, Requests: 1}},
		{Name: "no-arrivals", Workload: WorkloadSpec{Dataset: testDataset(), Requests: 1},
			Fleet: FleetSpec{Instances: 1}},
		{Name: "bad-router", Workload: WorkloadSpec{
			Dataset: testDataset(), Arrivals: workload.Poisson{RatePerSec: 1}, Requests: 1},
			Fleet: FleetSpec{Instances: 1, Router: "nope"}},
		{Name: "bad-admission", Workload: WorkloadSpec{
			Dataset: testDataset(), Arrivals: workload.Poisson{RatePerSec: 1}, Requests: 1},
			Fleet: FleetSpec{Instances: 1, Admission: "nope"}},
		{Name: "unnamed-tenant", Workload: WorkloadSpec{
			Tenants: []workload.TenantSpec{
				{Dataset: testDataset(), Arrivals: workload.Poisson{RatePerSec: 1}, N: 1}}},
			Fleet: FleetSpec{Instances: 1}},
		{Name: "tenant-no-arrivals", Workload: WorkloadSpec{
			Tenants: []workload.TenantSpec{{Name: "x", Dataset: testDataset(), N: 1}}},
			Fleet: FleetSpec{Instances: 1}},
	} {
		if _, err := r.Run(sc); err == nil {
			t.Errorf("scenario %s did not error", sc.Name)
		}
	}
}

// TestRunRejectsUnreachableFaultTargets: on a fixed fleet, a fault aimed
// at an instance the fleet never has is an error rather than a silently
// fault-free run. Crash replacements count toward the fleet under
// ReplaceOnCrash, fleet-wide faults always pass, and autoscaled fleets
// are not checked.
func TestRunRejectsUnreachableFaultTargets(t *testing.T) {
	run := func(f *FaultSpec, autoscale bool) error {
		_, err := testRunner(1).Run(Scenario{
			Name: "targets",
			Workload: WorkloadSpec{
				Dataset: testDataset(), Arrivals: workload.Poisson{RatePerSec: 10}, Requests: 8,
			},
			Fleet:  FleetSpec{Instances: 2, Autoscale: autoscale},
			Faults: f,
		})
		return err
	}
	crash := func(id int) []faults.Crash { return []faults.Crash{{AtMS: 5, Instance: id}} }
	brownout := func(id int) []faults.Brownout {
		return []faults.Brownout{{AtMS: 5, DurationMS: 10, Link: faults.LinkPCIe, Factor: 0.5, Instance: id}}
	}
	if err := run(&FaultSpec{Crashes: crash(99)}, false); err == nil || !strings.Contains(err.Error(), "instance 99") {
		t.Fatalf("crash on i99 of a 2-instance fleet: err %v, want one naming instance 99", err)
	}
	if err := run(&FaultSpec{Brownouts: brownout(2)}, false); err == nil {
		t.Fatal("brownout on i2 of a 2-instance fleet accepted")
	}
	replace := cluster.ResilienceOptions{Enabled: true, RequeueOnCrash: true, ReplaceOnCrash: true}
	if err := run(&FaultSpec{Crashes: crash(0), Brownouts: brownout(2), Resilience: replace}, false); err != nil {
		t.Fatalf("i2 with ReplaceOnCrash and one crash: %v", err)
	}
	if err := run(&FaultSpec{Brownouts: brownout(faults.AllInstances)}, false); err != nil {
		t.Fatalf("fleet-wide brownout: %v", err)
	}
	if err := run(&FaultSpec{Crashes: crash(99)}, true); err != nil {
		t.Fatalf("autoscaled fleet: %v", err)
	}
}

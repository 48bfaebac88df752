package cluster

import (
	"encoding/json"
	"math"
	"testing"

	"finemoe/internal/faults"
	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// gauntletPlan is the crash+brownout+stall schedule the fault tests
// share: instance 1 dies mid-trace with 100 ms detection latency, the
// PCIe links of instance 2 run at 30% bandwidth for a window, and every
// staging link freezes briefly.
func gauntletPlan() *faults.Plan {
	return &faults.Plan{
		Crashes:   []faults.Crash{{AtMS: 300, Instance: 1, DetectMS: 100}},
		Brownouts: []faults.Brownout{{AtMS: 150, DurationMS: 400, Link: faults.LinkPCIe, Factor: 0.3, Instance: 2}},
		Stalls:    []faults.Stall{{AtMS: 100, DurationMS: 80, Link: faults.LinkStaging, Instance: faults.AllInstances}},
	}
}

// fullResilience is the everything-on policy: timeouts, retries with
// backoff, hedging, a retry budget, crash requeue and replacement.
func fullResilience() ResilienceOptions {
	return ResilienceOptions{
		Enabled: true, TimeoutMS: 400, MaxRetries: 2,
		HedgeAfterMS: 250, RetryBudgetFrac: 0.5,
		RequeueOnCrash: true, ReplaceOnCrash: true, Seed: 77,
	}
}

// faultCluster builds a 4-instance fleet under the gauntlet plan with
// the given resilience policy.
func faultCluster(res ResilienceOptions) (*Cluster, []workload.Request) {
	m := moe.NewModel(moe.Tiny(), 7)
	return New(Options{
		Engines:       testEngines(m, 4),
		Router:        NewLeastLoaded(),
		EngineFactory: func(id int) *serve.Engine { return testEngines(m, 1)[0] },
		FaultPlan:     gauntletPlan(),
		Resilience:    res,
	}), testTrace(m.Cfg, 48, 60, 3)
}

// TestCrashWithoutResilience: with resilience off, a crash strands every
// request on the dead instance — they are lost, counted failed, and the
// instance leaves the fleet at detection while the rest keep serving.
func TestCrashWithoutResilience(t *testing.T) {
	c, trace := faultCluster(ResilienceOptions{})
	res := c.RunTrace(trace)
	if res.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", res.Crashes)
	}
	if res.LostInFlight == 0 || res.FailedRequests != res.LostInFlight {
		t.Fatalf("lost %d / failed %d: want equal and positive",
			res.LostInFlight, res.FailedRequests)
	}
	if res.Served+res.FailedRequests != res.Admitted {
		t.Fatalf("served %d + failed %d != admitted %d",
			res.Served, res.FailedRequests, res.Admitted)
	}
	if res.DegradedMS <= 0 {
		t.Fatal("brownout+stall windows reported no degraded exposure")
	}
	var crashed *InstanceResult
	for i := range res.Instances {
		if res.Instances[i].Crashed {
			crashed = &res.Instances[i]
		}
	}
	if crashed == nil || crashed.ID != 1 || crashed.CrashedMS != 300 {
		t.Fatalf("crashed instance record wrong: %+v", crashed)
	}
	// The dead instance costs capacity only until the failure itself.
	if res.WallClockMS <= 300 {
		t.Fatalf("makespan %v did not outlive the crash", res.WallClockMS)
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("empty fault log")
	}
	for i := 1; i < len(res.FaultLog); i++ {
		if res.FaultLog[i].TimeMS < res.FaultLog[i-1].TimeMS {
			t.Fatalf("fault log out of order at %d: %+v", i, res.FaultLog[i])
		}
	}
}

// TestCrashBillsUpToMakespan: a crashed instance costs instance-hours
// until its crash or the fleet makespan, whichever comes first. A crash
// after the last completion bills what the fault-free run bills; a
// mid-run crash bills less.
func TestCrashBillsUpToMakespan(t *testing.T) {
	run := func(plan *faults.Plan) *Result {
		m := moe.NewModel(moe.Tiny(), 7)
		c := New(Options{Engines: testEngines(m, 2), FaultPlan: plan})
		return c.RunTrace(testTrace(m.Cfg, 16, 40, 3))
	}
	crashAt := func(ms float64) *faults.Plan {
		return &faults.Plan{Crashes: []faults.Crash{{AtMS: ms, Instance: 0}}}
	}
	base := run(nil)
	late := run(crashAt(1e300))
	if late.Crashes != 1 || late.Served != base.Served {
		t.Fatalf("late crash: crashes %d served %d, want 1 and %d", late.Crashes, late.Served, base.Served)
	}
	if late.InstanceHours != base.InstanceHours {
		t.Fatalf("crash after the makespan billed %v instance-hours, fault-free run %v",
			late.InstanceHours, base.InstanceHours)
	}
	mid := run(crashAt(base.WallClockMS / 2))
	if mid.Crashes != 1 || mid.InstanceHours >= base.InstanceHours {
		t.Fatalf("mid-run crash: crashes %d, %v instance-hours, want 1 and below %v",
			mid.Crashes, mid.InstanceHours, base.InstanceHours)
	}
}

// TestResilienceRecoversCrash: requeue-on-crash plus replacement turns
// every stranded request into a served one — no failures, with retries
// and a "replace" scale event on the books.
func TestResilienceRecoversCrash(t *testing.T) {
	c, trace := faultCluster(fullResilience())
	res := c.RunTrace(trace)
	if res.FailedRequests != 0 {
		t.Fatalf("failed %d with full resilience", res.FailedRequests)
	}
	if res.Served+res.FailedRequests != res.Admitted {
		t.Fatalf("served %d + failed %d != admitted %d",
			res.Served, res.FailedRequests, res.Admitted)
	}
	if res.LostInFlight == 0 || res.Retries == 0 {
		t.Fatalf("lost %d retries %d: crash recovery never exercised",
			res.LostInFlight, res.Retries)
	}
	replaced := false
	for _, ev := range res.ScaleEvents {
		if ev.Kind == "replace" {
			replaced = true
		}
	}
	if !replaced {
		t.Fatal("no replacement spawned for the detected crash")
	}
	// Baseline comparison: resilience must not serve fewer requests than
	// the unprotected fleet.
	cOff, traceOff := faultCluster(ResilienceOptions{})
	off := cOff.RunTrace(traceOff)
	if res.Served <= off.Served {
		t.Fatalf("resilience served %d <= unprotected %d", res.Served, off.Served)
	}
}

// TestHedgedRequestsResolveOnce: with hedging on, every request is
// served exactly once in the fleet aggregate — hedge losers are stale,
// winners may carry the hedge ID, and HedgedWins counts them.
func TestHedgedRequestsResolveOnce(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 7)
	// Brown out instance 0 hard so its primaries lose to their hedges.
	c := New(Options{
		Engines: testEngines(m, 2),
		Router:  NewRoundRobin(),
		FaultPlan: &faults.Plan{Brownouts: []faults.Brownout{
			{AtMS: 0, DurationMS: 4000, Link: faults.LinkPCIe, Factor: 0.05, Instance: 0},
		}},
		Resilience: ResilienceOptions{Enabled: true, HedgeAfterMS: 30, Seed: 9},
	})
	trace := testTrace(m.Cfg, 32, 50, 5)
	res := c.RunTrace(trace)
	if res.Served+res.FailedRequests != res.Admitted {
		t.Fatalf("served %d + failed %d != admitted %d",
			res.Served, res.FailedRequests, res.Admitted)
	}
	if res.HedgedWins == 0 {
		t.Fatal("no hedged wins under a 20x brownout of half the fleet")
	}
	// Raw per-instance results may hold more completions than the fleet
	// served count — exactly the stale hedge losers.
	raw := 0
	for _, ir := range res.Instances {
		raw += len(ir.Result.Requests)
	}
	if raw <= res.Served {
		t.Fatalf("raw completions %d <= served %d: no stale losers recorded", raw, res.Served)
	}
}

// TestFaultRunDeterministic: the gauntlet with full resilience produces
// byte-identical ClusterResults (fault log, availability counters, every
// metric) run-to-run at fixed seeds.
func TestFaultRunDeterministic(t *testing.T) {
	run := func() string {
		c, trace := faultCluster(fullResilience())
		b, err := json.Marshal(c.RunTrace(trace))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(b)
	}
	if run() != run() {
		t.Fatal("fault run not deterministic run-to-run")
	}
}

// TestBackoffDeterminism: the retry schedule is a pure function of
// (seed, request ID, attempt) — monotone in attempts up to the cap, and
// jitter-bounded. Attempts 1–8 reach the cap: at a 50 ms base, 2000 ms
// binds from attempt 7.
func TestBackoffDeterminism(t *testing.T) {
	c, _ := faultCluster(fullResilience())
	capped := false
	for attempt := 1; attempt <= 8; attempt++ {
		a := c.backoffMS(42, attempt)
		if b := c.backoffMS(42, attempt); a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		base := backoffBaseMS * math.Pow(2, float64(attempt-1))
		if base > backoffMaxMS {
			base, capped = backoffMaxMS, true
		}
		if a < base || a > base*(1+jitterFrac) {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]",
				attempt, a, base, base*(1+jitterFrac))
		}
	}
	if !capped {
		t.Fatal("attempts never reached the backoff cap")
	}
	if c.backoffMS(42, 1) == c.backoffMS(43, 1) {
		t.Fatal("distinct requests drew identical jitter")
	}
}

// TestEmptyFaultPlanIsInert: Options with a nil/empty plan and disabled
// resilience must produce the byte-identical result of a cluster built
// without the fields at all — the no-fault serial path is unchanged.
func TestEmptyFaultPlanIsInert(t *testing.T) {
	run := func(withFields bool) string {
		m := moe.NewModel(moe.Tiny(), 7)
		opts := Options{Engines: testEngines(m, 3), Router: NewLeastLoaded()}
		if withFields {
			opts.FaultPlan = &faults.Plan{}
			opts.Resilience = ResilienceOptions{}
		}
		b, err := json.Marshal(New(opts).RunTrace(testTrace(m.Cfg, 24, 50, 3)))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(b)
	}
	if run(false) != run(true) {
		t.Fatal("empty fault plan perturbed a fault-free run")
	}
}

package cluster

import (
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// sessionTrace builds openers plus a session generator over the tiny
// model's semantic dimensionality.
func sessionCluster(t *testing.T, seed uint64) (*Cluster, []workload.Request, *workload.Sessions) {
	t.Helper()
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	d := workload.Dataset{
		Name: "session-test", Topics: 4, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: 12,
	}
	sess := workload.NewSessions(d, cfg.SemDim,
		workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 0.05, Drift: 0.03}, seed)
	trace := sess.Initial(workload.Poisson{RatePerSec: 20}, 10, 0)
	cl := New(Options{
		Engines: testEngines(m, 2),
		FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
			return sess.FollowUp(orig, done.EndMS)
		},
	})
	return cl, trace, sess
}

// TestFollowUpInjection: the closed loop serves every injected turn —
// served = openers + follow-ups — and each follow-up arrives at or after
// its parent's completion.
func TestFollowUpInjection(t *testing.T) {
	cl, trace, _ := sessionCluster(t, 3)
	res := cl.RunTrace(trace)
	if res.FollowUps == 0 {
		t.Fatal("no follow-ups injected; closed loop is dead")
	}
	if res.Served != len(trace)+res.FollowUps {
		t.Fatalf("served %d, want %d openers + %d follow-ups",
			res.Served, len(trace), res.FollowUps)
	}
	if res.Admitted != res.Served {
		t.Fatalf("admitted %d != served %d", res.Admitted, res.Served)
	}

	// Reconstruct per-session turn order from completion metrics: every
	// follow-up (ID above the turn stride) must arrive no earlier than
	// some earlier-turn completion of the same session.
	byID := map[uint64]serve.RequestMetrics{}
	for _, ir := range res.Instances {
		for _, q := range ir.Result.Requests {
			byID[q.ID] = q
		}
	}
	const stride = uint64(1) << 48
	for id, q := range byID {
		if id < stride {
			continue // opener
		}
		parent, ok := byID[id-stride]
		if !ok {
			t.Fatalf("follow-up %d served without its parent", id)
		}
		if q.ArrivalMS < parent.EndMS {
			t.Fatalf("follow-up %d arrived at %.2f before parent finished at %.2f",
				id, q.ArrivalMS, parent.EndMS)
		}
	}
}

// TestFollowUpDeterminism: the closed loop is inside the determinism
// contract — two identical runs serve identical request sets with
// identical timings.
func TestFollowUpDeterminism(t *testing.T) {
	run := func() *Result {
		cl, trace, _ := sessionCluster(t, 3)
		return cl.RunTrace(trace)
	}
	a, b := run(), run()
	if a.FollowUps != b.FollowUps || a.Served != b.Served {
		t.Fatalf("follow-up counts diverge: %d/%d vs %d/%d",
			a.FollowUps, a.Served, b.FollowUps, b.Served)
	}
	if a.TTFT != b.TTFT || a.E2E != b.E2E || a.HitRate != b.HitRate {
		t.Fatal("closed-loop run not deterministic")
	}
}

// TestFollowUpDrainPath: follow-ups injected while draining (no trace
// arrivals left) are still offered and served — the loop merges the
// injected queue with instance events.
func TestFollowUpDrainPath(t *testing.T) {
	cl, trace, _ := sessionCluster(t, 5)
	// Offer everything up front, then drain: all follow-ups arrive during
	// the drain phase.
	for _, q := range trace {
		cl.offer(q, nil)
	}
	res := cl.RunTrace(nil)
	if res.FollowUps == 0 {
		t.Fatal("no follow-ups during drain")
	}
	if res.Served != len(trace)+res.FollowUps {
		t.Fatalf("drain lost follow-ups: served %d, want %d",
			res.Served, len(trace)+res.FollowUps)
	}
}

// TestNoFollowUpHookUnchanged: without the hook, injection bookkeeping
// stays inert.
func TestNoFollowUpHookUnchanged(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	cl := New(Options{Engines: testEngines(m, 2)})
	res := cl.RunTrace(testTrace(cfg, 12, 20, 4))
	if res.FollowUps != 0 {
		t.Fatalf("follow-ups %d without a hook", res.FollowUps)
	}
	if res.Served != 12 {
		t.Fatalf("served %d, want 12", res.Served)
	}
}

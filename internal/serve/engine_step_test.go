package serve

import (
	"encoding/json"
	"math"
	"testing"

	"finemoe/internal/core"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/workload"
)

func stepEngine(m *moe.Model, pol policy.Policy) *Engine {
	return New(Options{
		Model: m, GPU: testGPU(), NumGPUs: 2,
		CacheBytes: m.Cfg.ExpertBytes() * int64(m.Cfg.NumExperts()/2),
		Policy:     pol, MaxBatch: 4,
	})
}

func finePolicy(cfg moe.Config) policy.Policy {
	return core.NewFineMoE(core.NewStore(cfg, 50, 2), core.Options{})
}

func onlineTrace(cfg moe.Config, n int) []workload.Request {
	d := workload.Dataset{
		Name: "step-test", Topics: 6, TopicSpread: 0.1,
		MeanInput: 5, MeanOutput: 4, Seed: 21,
	}
	return workload.AzureTrace(d, cfg.SemDim, workload.TraceConfig{
		RatePerSec: 40, N: n, Seed: 11,
	})
}

// TestStepAPIMatchesRunOnline: driving the steppable surface by hand must
// reproduce RunOnline byte-for-byte — RunOnline is a thin wrapper over it.
func TestStepAPIMatchesRunOnline(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	trace := onlineTrace(m.Cfg, 12)

	want := stepEngine(m, finePolicy(m.Cfg)).RunOnline(trace, nil)

	e := stepEngine(m, finePolicy(m.Cfg))
	// Submit out of order: Submit must sort by arrival time.
	for i := len(trace) - 1; i >= 0; i-- {
		e.Submit(trace[i])
	}
	if e.QueueDepth() != len(trace) {
		t.Fatalf("queue depth %d, want %d", e.QueueDepth(), len(trace))
	}
	// Drive event by event through Step rather than Drain.
	for {
		next := e.NextEventTime()
		if math.IsInf(next, 1) {
			break
		}
		if !e.Step(next) {
			t.Fatalf("Step(%v) refused its own NextEventTime", next)
		}
		if e.Now() < next {
			t.Fatalf("clock %v ran behind stepped event %v", e.Now(), next)
		}
	}
	if e.InFlight() != 0 || e.QueueDepth() != 0 {
		t.Fatalf("not drained: %d in flight, %d queued", e.InFlight(), e.QueueDepth())
	}
	if len(e.Completed()) != len(trace) {
		t.Fatalf("completed %d, want %d", len(e.Completed()), len(trace))
	}
	got := e.Finalize()

	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("step-API result differs from RunOnline:\n%s\nvs\n%s", a, b)
	}
}

// TestStepRespectsUntil: Step must refuse events strictly after the bound.
func TestStepRespectsUntil(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	e := stepEngine(m, finePolicy(m.Cfg))
	q := onlineTrace(m.Cfg, 1)[0]
	q.ArrivalMS = 100
	e.Submit(q)
	if e.Step(99) {
		t.Fatal("Step ran an arrival scheduled after the bound")
	}
	if e.Now() != 0 {
		t.Fatalf("refused Step moved the clock to %v", e.Now())
	}
	if !e.Step(100) {
		t.Fatal("Step refused a due arrival")
	}
	if e.Now() < 100 {
		t.Fatalf("clock %v behind admitted arrival", e.Now())
	}
	e.Drain()
	if len(e.Completed()) != 1 {
		t.Fatalf("completed %d, want 1", len(e.Completed()))
	}
}

// TestSubmitTracedMatchesSimulated: a pre-supplied gate trace must serve
// identically to lazy simulation at admission.
func TestSubmitTracedMatchesSimulated(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	trace := onlineTrace(m.Cfg, 6)
	traces := make(map[uint64][]*moe.Iteration, len(trace))
	for _, q := range trace {
		traces[q.ID] = m.Trace(q.PromptSpec)
	}
	want := stepEngine(m, finePolicy(m.Cfg)).RunOnline(trace, nil)
	got := stepEngine(m, finePolicy(m.Cfg)).RunOnline(trace, traces)
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatal("pre-traced run differs from lazily simulated run")
	}
}

// TestHandOffTraceRecycled: a handed-off trace serves like lazy
// simulation and returns to the model's free list when its request
// completes, while a SubmitTraced trace stays the caller's.
func TestHandOffTraceRecycled(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	trace := onlineTrace(m.Cfg, 2)
	tr := m.NewTracer()
	handed := tr.Trace(trace[0].PromptSpec, nil)
	owned := m.Trace(trace[1].PromptSpec)
	handedIts := append([]*moe.Iteration(nil), handed...)
	ownedIts := append([]*moe.Iteration(nil), owned...)

	e := stepEngine(m, finePolicy(m.Cfg))
	e.SubmitHandOff(trace[0], handed)
	e.SubmitTraced(trace[1], owned)
	e.Drain()
	want := stepEngine(m, finePolicy(m.Cfg)).RunOnline(trace, nil)
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(e.Finalize())
	if string(a) != string(b) {
		t.Fatal("handed-off run differs from lazily simulated run")
	}

	// Neither request was traced by the engine, so the free list holds
	// exactly the handed-off iterations: a trace longer than both
	// draws all of them and then allocates.
	spec := trace[0].PromptSpec
	spec.OutputTokens = len(handedIts) + len(ownedIts) + 1
	drawn := map[*moe.Iteration]bool{}
	for _, it := range tr.Trace(spec, nil) {
		drawn[it] = true
	}
	for i, it := range handedIts {
		if !drawn[it] {
			t.Errorf("handed-off iteration %d was not recycled into the model's free list", i)
		}
	}
	for i, it := range ownedIts {
		if drawn[it] {
			t.Errorf("caller-owned iteration %d was recycled", i)
		}
	}
}

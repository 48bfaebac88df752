package serve

import (
	"math"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/policy"
)

// TestCrashHaltsEngine: a crashed engine stops producing events and
// strands its queue until CrashHarvest collects it — running requests in
// admission order, then pending in arrival order — exactly once.
func TestCrashHaltsEngine(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	e := stepEngine(m, finePolicy(m.Cfg))
	trace := onlineTrace(m.Cfg, 8)
	for _, q := range trace {
		e.Submit(q)
	}
	// Serve a few events so some requests complete and some are mid-batch.
	for i := 0; i < 3; i++ {
		if next := e.NextEventTime(); !math.IsInf(next, 1) {
			e.Step(next)
		}
	}
	inFlight, queued := e.InFlight(), e.QueueDepth()
	served := len(e.Completed())
	if inFlight+queued == 0 {
		t.Fatal("test needs stranded work; trace drained too fast")
	}

	e.Crash()
	if got := e.NextEventTime(); !math.IsInf(got, 1) {
		t.Fatalf("crashed NextEventTime %v, want +Inf", got)
	}
	if e.Step(math.Inf(1)) {
		t.Fatal("crashed engine stepped")
	}
	if len(e.Completed()) != served {
		t.Fatalf("completions changed after crash: %d -> %d", served, len(e.Completed()))
	}

	harvest := e.CrashHarvest()
	if len(harvest) != inFlight+queued {
		t.Fatalf("harvested %d, want %d in-flight + %d queued", len(harvest), inFlight, queued)
	}
	// Queued tail must preserve arrival order.
	for i := inFlight + 1; i < len(harvest); i++ {
		if harvest[i].ArrivalMS < harvest[i-1].ArrivalMS {
			t.Fatalf("harvest queue out of arrival order at %d", i)
		}
	}
	if e.InFlight() != 0 || e.QueueDepth() != 0 {
		t.Fatal("harvest left stranded work behind")
	}
	if e.CrashHarvest() != nil {
		t.Fatal("second harvest not nil")
	}
}

// TestCancelRemovesRequest: Cancel retires queued and in-flight copies
// without completion metrics; unknown and already-completed IDs miss.
func TestCancelRemovesRequest(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	e := stepEngine(m, finePolicy(m.Cfg))
	trace := onlineTrace(m.Cfg, 6)
	for _, q := range trace {
		e.Submit(q)
	}
	// Cancel a queued request before it is ever admitted.
	victim := trace[len(trace)-1].ID
	if !e.Cancel(victim) {
		t.Fatal("Cancel missed a queued request")
	}
	if e.Cancel(victim) {
		t.Fatal("Cancel hit the same request twice")
	}
	// Admit work, then cancel something mid-batch.
	e.Step(e.NextEventTime())
	if e.InFlight() == 0 {
		t.Fatal("expected in-flight work after one step")
	}
	running := e.running[0].req.ID
	before := e.InFlight()
	if !e.Cancel(running) {
		t.Fatal("Cancel missed an in-flight request")
	}
	if e.InFlight() != before-1 {
		t.Fatalf("in-flight %d after cancel, want %d", e.InFlight(), before-1)
	}
	e.Drain()
	for _, rm := range e.Completed() {
		if rm.ID == victim || rm.ID == running {
			t.Fatalf("cancelled request %d completed", rm.ID)
		}
	}
	if len(e.Completed()) != len(trace)-2 {
		t.Fatalf("completed %d, want %d", len(e.Completed()), len(trace)-2)
	}
}

// lifecyclePolicy tracks which requests have policy state: StartRequest
// opens it, EndRequest must close an open one.
type lifecyclePolicy struct {
	policy.Base
	t            *testing.T
	live         map[uint64]bool
	starts, ends int
}

func (*lifecyclePolicy) Name() string { return "lifecycle" }

func (p *lifecyclePolicy) StartRequest(id uint64, _ float64) float64 {
	p.starts++
	p.live[id] = true
	return 0
}

func (p *lifecyclePolicy) EndRequest(id uint64, _ float64) {
	if !p.live[id] {
		p.t.Errorf("EndRequest(%d) without an open StartRequest", id)
	}
	delete(p.live, id)
	p.ends++
}

// TestDroppedRequestsEndInPolicy: EndRequest fires once for every
// request StartRequest saw, including a mid-batch request retired by
// Cancel and a running batch taken by CrashHarvest, so a dropped hedge,
// timeout or crash copy leaves no per-request policy state behind.
func TestDroppedRequestsEndInPolicy(t *testing.T) {
	m := moe.NewModel(moe.Tiny(), 3)
	pol := &lifecyclePolicy{t: t, live: map[uint64]bool{}}
	e := stepEngine(m, pol)
	for _, q := range onlineTrace(m.Cfg, 8) {
		q.ArrivalMS = 0 // all due at once, so the first step admits a full batch
		e.Submit(q)
	}
	e.Step(e.NextEventTime())
	if e.InFlight() < 2 {
		t.Fatalf("in flight %d after the first step, want a batch of at least 2", e.InFlight())
	}
	if !e.Cancel(e.running[0].req.ID) {
		t.Fatal("Cancel missed an in-flight request")
	}
	if len(pol.live) != e.InFlight() {
		t.Fatalf("after Cancel: %d requests hold policy state, %d are in flight", len(pol.live), e.InFlight())
	}

	e.Step(e.NextEventTime())
	if e.InFlight() == 0 {
		t.Fatal("test needs a running batch at the crash")
	}
	e.Crash()
	e.CrashHarvest()
	if pol.starts != pol.ends || len(pol.live) != 0 {
		t.Fatalf("after CrashHarvest: %d StartRequest, %d EndRequest, %d still open", pol.starts, pol.ends, len(pol.live))
	}
}

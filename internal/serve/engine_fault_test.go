package serve

import (
	"math"
	"testing"

	"finemoe/internal/moe"
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

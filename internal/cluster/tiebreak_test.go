package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// The shared-clock loop's contract at equal event times is
// arrival → autoscale tick → instance, with trace arrivals beating
// injected follow-ups at the same instant. These regression tests pin the
// tie-breaks through observable side effects — the order admission and
// the autoscaler see events, and the fleet state each observes — so a
// change to the loop cannot silently perturb them.

// evLog collects the observation order of one run.
type evLog struct{ entries []string }

// logAdmission admits everything, logging each arrival's (id, clock).
type logAdmission struct{ log *evLog }

func (logAdmission) Name() string { return "log-admit" }
func (a logAdmission) Admit(q workload.Request, now float64, fleet []InstanceState) bool {
	a.log.entries = append(a.log.entries, fmt.Sprintf("arrival:%d@%g", q.ID, now))
	return true
}

// logScaler holds forever, logging each tick's clock and the fleet's
// total queued depth — the proof of what state the tick observed.
type logScaler struct{ log *evLog }

func (logScaler) Name() string { return "log-scaler" }
func (s logScaler) Decide(now float64, fleet []InstanceState) Decision {
	depth := 0
	for _, st := range fleet {
		depth += st.QueueDepth
	}
	s.log.entries = append(s.log.entries, fmt.Sprintf("tick@%g depth=%d", now, depth))
	return Hold
}

// tbReq builds a request with an exact arrival time and a valid embedding
// for the tiny model.
func tbReq(cfg moe.Config, id uint64, arrival float64) workload.Request {
	emb := make([]float64, cfg.SemDim)
	emb[int(id)%cfg.SemDim] = 1
	return workload.Request{
		PromptSpec: moe.PromptSpec{ID: id, InputTokens: 4, OutputTokens: 2, Embedding: emb},
		ArrivalMS:  arrival,
	}
}

// TestTieBreakTraceBeatsInjected: a trace arrival and a follow-up
// injection at the exact same timestamp resolve toward the trace (run's
// strict `<` on the injected head).
func TestTieBreakTraceBeatsInjected(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	log := &evLog{}
	c := New(Options{
		Engines:   testEngines(m, 2),
		Admission: logAdmission{log},
		FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
			if orig.ID != 1 {
				return workload.Request{}, false
			}
			// Injected at exactly the second trace arrival's time.
			return tbReq(cfg, 99, 5000), true
		},
	})
	res := c.RunTrace([]workload.Request{tbReq(cfg, 1, 0), tbReq(cfg, 2, 5000)})
	if res.FollowUps != 1 || res.Served != 3 {
		t.Fatalf("follow-ups %d served %d, want 1/3", res.FollowUps, res.Served)
	}
	want := []string{"arrival:1@0", "arrival:2@5000", "arrival:99@5000"}
	if !reflect.DeepEqual(log.entries, want) {
		t.Fatalf("admission order %v, want %v", log.entries, want)
	}
}

// TestTieBreakArrivalBeatsTick: an arrival and an autoscale tick at the
// same timestamp process arrival-first, so the tick's fleet view includes
// the just-offered request.
func TestTieBreakArrivalBeatsTick(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	log := &evLog{}
	c := New(Options{
		Engines:             testEngines(m, 2),
		Admission:           logAdmission{log},
		Autoscaler:          logScaler{log},
		EngineFactory:       func(id int) *serve.Engine { return testEngines(m, 1)[0] },
		AutoscaleIntervalMS: 500,
	})
	// A single arrival at exactly the first tick time. Arrival first
	// means the routed request is visible (queued or in flight) when the
	// tick fires; the engine's own event at 500 runs after the tick, so
	// the request cannot yet have been admitted to a batch — the tick
	// must observe queue depth 1.
	res := c.RunTrace([]workload.Request{tbReq(cfg, 1, 500)})
	if res.Served != 1 {
		t.Fatalf("served %d, want 1", res.Served)
	}
	if len(log.entries) < 2 {
		t.Fatalf("too few observations: %v", log.entries)
	}
	want := []string{"arrival:1@500", "tick@500 depth=1"}
	if !reflect.DeepEqual(log.entries[:2], want) {
		t.Fatalf("order %v, want prefix %v", log.entries[:2], want)
	}
}

// TestTieBreakTickBeatsInstance: an autoscale tick and an instance event
// at the same timestamp process tick-first — the tick observes the
// pre-step fleet (the pending request still queued). The instance's
// pending head is planted on its engine directly and the event heap
// refreshed, so no arrival event competes with it.
func TestTieBreakTickBeatsInstance(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	log := &evLog{}
	c := New(Options{
		Engines:             testEngines(m, 2),
		Autoscaler:          logScaler{log},
		EngineFactory:       func(id int) *serve.Engine { return testEngines(m, 1)[0] },
		AutoscaleIntervalMS: 500,
	})
	// Plant a pending arrival at exactly the tick time, then refresh the
	// heap.
	c.instances[0].Engine.Submit(tbReq(cfg, 1, 500))
	c.refreshEvent(0)
	if tm, which := c.nextInstanceEvent(); tm != 500 || which != 0 {
		t.Fatalf("heap after refresh = (%v, %d), want (500, 0)", tm, which)
	}
	if res := c.RunTrace(nil); res.WallClockMS <= 500 {
		t.Fatalf("drain wall %v never passed the planted event", res.WallClockMS)
	}
	if len(log.entries) == 0 {
		t.Fatal("no tick observed")
	}
	// Tick at 500 fires before the instance admits at 500: depth 1.
	if log.entries[0] != "tick@500 depth=1" {
		t.Fatalf("first tick %q, want tick@500 depth=1", log.entries[0])
	}
}

// TestTieBreakThreeWayCoincidence: a trace arrival, a follow-up
// injection, an autoscale tick and an instance event all at the same
// timestamp resolve trace-arrival → injected-arrival → tick → instance.
func TestTieBreakThreeWayCoincidence(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 7)
	log := &evLog{}
	c := New(Options{
		Engines:             stagedEngines(m, 2),
		Admission:           logAdmission{log},
		Autoscaler:          logScaler{log},
		EngineFactory:       func(id int) *serve.Engine { return stagedEngines(m, 1)[0] },
		AutoscaleIntervalMS: 500,
		FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
			if orig.ID != 1 {
				return workload.Request{}, false
			}
			return tbReq(cfg, 99, 500), true
		},
	})
	// Plant an instance event at 500 on the highest instance (kept clear
	// of routing by the default round-robin starting at 0).
	c.instances[1].Engine.Submit(tbReq(cfg, 50, 500))
	c.refreshEvent(1)
	res := c.RunTrace([]workload.Request{tbReq(cfg, 1, 0), tbReq(cfg, 2, 500)})
	if res.FollowUps != 1 {
		t.Fatalf("follow-ups %d, want 1", res.FollowUps)
	}
	// Trace arrival then injected arrival then tick, all at 500; the
	// planted request (and arrivals routed at 500) still queued when the
	// tick observes the fleet.
	want := []string{"arrival:1@0", "arrival:2@500", "arrival:99@500"}
	if got := log.entries[:3]; !reflect.DeepEqual(got, want) {
		t.Fatalf("arrival order %v, want %v", got, want)
	}
	if tick := log.entries[3]; tick != "tick@500 depth=3" {
		t.Fatalf("tick observation %q, want tick@500 depth=3 (arrivals and planted request pre-step)", tick)
	}
}

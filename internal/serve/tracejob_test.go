package serve

import (
	"bytes"
	"runtime"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/workload"
)

// aheadEngine builds an engine with MaxBatch 3 that asks q for the gate
// traces of its next admission set, and queues four requests arriving at
// 10 ms: the first three get jobs, the fourth, outside the set, none.
func aheadEngine(t *testing.T) (*Engine, *moe.Model, *moe.TraceQueue, []workload.Request) {
	t.Helper()
	e, m := newTinyEngine(t, &nopPolicy{}, func(o *Options) { o.MaxBatch = 3 })
	q := m.NewTraceQueue()
	e.SetTraceQueue(q)
	reqs := testReqs(m.Cfg, 4, 3)
	for i := range reqs {
		reqs[i].ArrivalMS = 10
		e.Submit(reqs[i])
	}
	for i, p := range e.pending {
		if (p.job != nil) != (i < 3) {
			t.Fatalf("queued request %d has job %v, want one only in the admission set", i, p.job)
		}
	}
	return e, m, q, reqs
}

// traceNext plays the helper for the oldest queued job: it starts the
// job and traces it, and finishes the job unless running is set, when
// the caller must.
func traceNext(t *testing.T, q *moe.TraceQueue, tr *moe.Tracer, running bool) (*moe.TraceJob, []*moe.Iteration) {
	t.Helper()
	j := q.Start()
	if j == nil {
		t.Fatal("no job queued")
	}
	its := tr.Trace(j.Spec(), nil)
	if !running {
		q.Finish(j, its)
	}
	return j, its
}

// finishWhenWaited plays the helper finishing the in-progress job j with
// its, but only once engine, running on another goroutine, is parked
// waiting for that job, so the test covers the wait. It returns when
// engine has. A goroutine that returns without waiting is an error.
func finishWhenWaited(t *testing.T, q *moe.TraceQueue, j *moe.TraceJob, its []*moe.Iteration, engine func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		engine()
	}()
	buf := make([]byte, 1<<20)
	for !parkedOnJob(buf) {
		select {
		case <-done:
			t.Error("the engine did not wait for the job in progress")
			return
		default:
			runtime.Gosched()
		}
	}
	q.Finish(j, its)
	<-done
}

// parkedOnJob reports whether some goroutine is blocked in a TraceJob's
// wait for the helper.
func parkedOnJob(buf []byte) bool {
	n := runtime.Stack(buf, true)
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte("moe.(*TraceJob).end")) {
			return true
		}
	}
	return false
}

// recycledOnce checks that every iteration of traces is on m's free list
// exactly once: a trace dropped on the floor is missing, and one recycled
// twice would be handed to two requests at once.
func recycledOnce(t *testing.T, m *moe.Model, emb []float64, traces ...[]*moe.Iteration) {
	t.Helper()
	seen := map[*moe.Iteration]int{}
	n := 0
	for _, its := range traces {
		for _, it := range its {
			seen[it] = 0
		}
		n += len(its)
	}
	// A trace longer than the free list draws every free iteration.
	spec := moe.PromptSpec{ID: 1 << 40, InputTokens: 1, OutputTokens: 2*n + 4, Embedding: emb}
	for _, it := range m.NewTracer().Trace(spec, make([]*moe.Iteration, 0, spec.OutputTokens)) {
		if _, ok := seen[it]; ok {
			seen[it]++
		}
	}
	for it, k := range seen {
		if k != 1 {
			t.Errorf("iteration %p is on the free list %d times, want once", it, k)
		}
	}
}

// TestTraceJobsOnDrop: Cancel and CrashHarvest release the trace jobs of
// the queued requests they drop. The unstarted job is withdrawn, so the
// helper never traces it; the engine waits for the job the helper is
// still tracing; and both helper-made traces go back to the model's free
// list exactly once.
func TestTraceJobsOnDrop(t *testing.T) {
	for _, harvest := range []bool{false, true} {
		e, m, q, reqs := aheadEngine(t)
		tr := m.NewTracer()
		_, finished := traceNext(t, q, tr, false)
		running, inProgress := traceNext(t, q, tr, true)
		finishWhenWaited(t, q, running, inProgress, func() {
			if harvest {
				e.Crash()
				if got := e.CrashHarvest(); len(got) != len(reqs) {
					t.Errorf("harvested %d of %d queued requests", len(got), len(reqs))
				}
				return
			}
			for _, r := range reqs {
				if !e.Cancel(r.ID) {
					t.Errorf("request %d not cancelled", r.ID)
				}
			}
		})
		if j := q.Start(); j != nil {
			t.Errorf("harvest=%v: the dropped request %d's unstarted job was left for the helper", harvest, j.Spec().ID)
		}
		if jobs, _ := q.Taken(); e.QueueDepth() != 0 || jobs != 0 {
			t.Errorf("harvest=%v: %d requests still queued, %d jobs taken", harvest, e.QueueDepth(), jobs)
		}
		recycledOnce(t, m, reqs[0].Embedding, finished, inProgress)
	}
}

// TestTraceJobsAtAdmission: admission takes the helper's finished trace,
// waits for the one in progress, and traces the request of an unstarted
// job itself, withdrawing the job. Each trace is recycled once when its
// request completes.
func TestTraceJobsAtAdmission(t *testing.T) {
	e, m, q, reqs := aheadEngine(t)
	tr := m.NewTracer()
	_, finished := traceNext(t, q, tr, false)
	running, inProgress := traceNext(t, q, tr, true)
	finishWhenWaited(t, q, running, inProgress, func() { e.Step(e.NextEventTime()) })
	if len(e.running) != 3 {
		t.Fatalf("admitted %d requests, want 3", len(e.running))
	}
	if j := q.Start(); j != nil {
		t.Errorf("the admitted request %d's unstarted job was left for the helper", j.Spec().ID)
	}
	if &e.running[0].iters[0] != &finished[0] || &e.running[1].iters[0] != &inProgress[0] {
		t.Error("admission did not take the helper-made traces")
	}
	if jobs, traced := q.Taken(); jobs != 3 || traced != 2 {
		t.Errorf("Taken = %d jobs, %d traced, want 3 and 2", jobs, traced)
	}
	e.Drain()
	if len(e.Completed()) != len(reqs) {
		t.Fatalf("completed %d of %d requests", len(e.Completed()), len(reqs))
	}
	recycledOnce(t, m, reqs[0].Embedding, finished, inProgress)
}

// TestTraceJobDisplaced: a request that an earlier arrival pushes out of
// the admission set gives its job back, recycling the finished trace, so
// only the set holds traces.
func TestTraceJobDisplaced(t *testing.T) {
	e, m, q, reqs := aheadEngine(t)
	tr := m.NewTracer()
	var last []*moe.Iteration
	for range 3 {
		_, last = traceNext(t, q, tr, false)
	}
	early := testReqs(m.Cfg, 5, 3)[4]
	early.ArrivalMS = 5
	e.Submit(early)
	if e.pending[0].req.ID != early.ID || e.pending[0].job == nil {
		t.Fatal("the earlier arrival did not enter the admission set with a job")
	}
	if p := e.pending[3]; p.req.ID != reqs[2].ID || p.job != nil {
		t.Fatalf("displaced request %d keeps job %v", p.req.ID, p.job)
	}
	recycledOnce(t, m, reqs[0].Embedding, last)
}

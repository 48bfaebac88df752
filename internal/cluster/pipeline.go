package cluster

import (
	"math"
	"runtime"

	"finemoe/internal/moe"
	"finemoe/internal/workload"
)

// traceAhead is how far the gate-trace pipeline's helper goroutine may
// read the Source ahead of the loop: at most traceAhead requests beyond
// the arrival the loop is scheduling against. It bounds the traces held
// in flight, which the run's live heap pays for; see ARCHITECTURE.md
// "Gate-trace pipeline" for why it is 8.
const traceAhead = 8

// tracedReq is one source request and its gate trace, traced ahead by
// the pipeline. A request whose trace panicked travels with a nil trace,
// so its engine raises the same panic at admission; fail carries a panic
// raised by Source.Next, which the loop re-raises where its own Next call
// would have.
type tracedReq struct {
	req  workload.Request
	its  []*moe.Iteration
	fail any
}

// tracePipeline runs the fleet's gate-trace simulation on one helper
// goroutine, ahead of the shared-clock loop. A gate trace is a pure
// function of (model, prompt), so which goroutine computes it, and when,
// cannot change a byte of the run.
type tracePipeline struct {
	model *moe.Model
	// tr is the helper's tracer; the loop also recycles unused traces
	// through it (Recycle is goroutine-safe).
	tr   *moe.Tracer
	ch   chan tracedReq
	stop chan struct{}
	done chan struct{}
}

// sharedModel returns the model every engine of the fleet serves, or nil
// when the pipeline must stay off: on a single-CPU runtime there is no
// second core to trace on, and a mixed-model fleet has no one model to
// trace with.
func (c *Cluster) sharedModel() *moe.Model {
	if runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	m := c.instances[0].Engine.Model()
	for _, in := range c.instances[1:] {
		if in.Engine.Model() != m {
			return nil
		}
	}
	return m
}

// startPipeline launches the helper goroutine over src.
func startPipeline(m *moe.Model, src workload.Source) *tracePipeline {
	p := &tracePipeline{
		model: m,
		tr:    m.NewTracer(),
		ch:    make(chan tracedReq, traceAhead-1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.fill(src)
	return p
}

// fill is the helper goroutine: it reads and traces requests until src
// is exhausted, Next panics, or the loop stops it. With the channel full
// it holds one more traced request, so it is at most traceAhead requests
// ahead of the loop's cursor.
func (p *tracePipeline) fill(src workload.Source) {
	defer close(p.done)
	defer close(p.ch)
	for {
		t, ok := p.draw(src)
		if !ok && t.fail == nil {
			return
		}
		select {
		case p.ch <- t:
		case <-p.stop:
			return
		}
		if t.fail != nil {
			return
		}
	}
}

// draw reads and traces the next request.
func (p *tracePipeline) draw(src workload.Source) (t tracedReq, ok bool) {
	defer func() {
		if v := recover(); v != nil && !ok {
			t.fail = v
		}
	}()
	t.req, ok = src.Next()
	if ok {
		t.its = p.tr.Trace(t.req.PromptSpec, nil)
	}
	return t, ok
}

// recycle returns a trace the loop did not hand to an engine to the
// model's free list. A nil trace is a no-op, also on a nil pipeline.
func (p *tracePipeline) recycle(its []*moe.Iteration) {
	if its != nil {
		p.tr.Recycle(its)
	}
}

// close stops the helper and waits for it to exit. Traces still queued
// are dropped for the collector.
func (p *tracePipeline) close() {
	close(p.stop)
	<-p.done
}

// reqCursor is the one-request lookahead window over a Source the
// shared-clock loop schedules against. With a pipeline it reads the
// helper's channel instead of the Source, and the pending arrival carries
// its gate trace.
type reqCursor struct {
	src  workload.Source
	pipe *tracePipeline
	cur  workload.Request
	its  []*moe.Iteration
	ok   bool
}

func newReqCursor(src workload.Source, pipe *tracePipeline) reqCursor {
	k := reqCursor{src: src, pipe: pipe}
	k.advance()
	return k
}

// peek returns the pending arrival's time, or +Inf when exhausted.
//
//finemoe:hotpath
func (k *reqCursor) peek() float64 {
	if !k.ok {
		return math.Inf(1)
	}
	return k.cur.ArrivalMS
}

// pop consumes the pending arrival and its trace (nil without a
// pipeline) and advances the window.
func (k *reqCursor) pop() (workload.Request, []*moe.Iteration) {
	q, its := k.cur, k.its
	k.advance()
	return q, its
}

// advance reads the next arrival: from the Source directly, running its
// generator (whose arena/block allocations are amortized), or from the
// pipeline.
func (k *reqCursor) advance() {
	if k.pipe == nil {
		k.cur, k.ok = k.src.Next()
		return
	}
	t, ok := <-k.pipe.ch
	if t.fail != nil {
		panic(t.fail)
	}
	k.cur, k.its, k.ok = t.req, t.its, ok
}

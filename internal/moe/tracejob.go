package moe

import (
	"slices"
	"sync"
)

// TraceQueue carries gate traces asked for ahead of need from the
// goroutine that will consume them to one helper goroutine that
// simulates them. An engine adds a job when a queued request enters its
// next admission set and takes it back when the request is admitted or
// leaves; the helper starts queued jobs oldest first. The queue holds
// only jobs its callers have added and not yet taken, so its length is
// bounded by their admission sets. Job records are pooled, so a
// steady-state Add allocates nothing.
//
// Add, Take and Release are for the consuming goroutine; Ready, Start
// and Finish are for the helper. All are safe to call concurrently.
type TraceQueue struct {
	m  *Model
	mu sync.Mutex
	// finished is signalled whenever a started job finishes, waking a
	// Take or Release that waits for it.
	finished sync.Cond
	queue    []*TraceJob
	free     []*TraceJob
	ready    chan struct{}
	// taken counts the jobs Take ended, and traced those of them that
	// returned a helper-made trace.
	taken, traced int
}

// jobState is a TraceJob's progress; it changes only under its queue's
// mutex.
type jobState uint8

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
)

// TraceJob is one gate trace asked of a TraceQueue.
type TraceJob struct {
	q     *TraceQueue
	spec  PromptSpec
	its   []*Iteration
	state jobState
}

// NewTraceQueue builds a job queue for traces of m.
func (m *Model) NewTraceQueue() *TraceQueue {
	q := &TraceQueue{m: m, ready: make(chan struct{}, 1)}
	q.finished.L = &q.mu
	return q
}

// Add queues a trace of spec and wakes the helper.
//
//finemoe:allocok allocates job records only while the pool warms up; steady-state jobs reuse taken records
func (q *TraceQueue) Add(spec PromptSpec) *TraceJob {
	q.mu.Lock()
	var j *TraceJob
	if n := len(q.free) - 1; n >= 0 {
		j = q.free[n]
		q.free[n] = nil
		q.free = q.free[:n]
	} else {
		j = &TraceJob{q: q}
	}
	j.spec, j.state = spec, jobQueued
	q.queue = append(q.queue, j)
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return j
}

// Ready receives after Add; the helper waits on it when Start finds
// nothing queued.
func (q *TraceQueue) Ready() <-chan struct{} { return q.ready }

// Start claims the oldest queued job for the helper, or returns nil when
// none is queued. The helper traces the job's Spec and hands the result
// to Finish.
func (q *TraceQueue) Start() *TraceJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		return nil
	}
	j := q.queue[0]
	q.unqueue(0)
	j.state = jobRunning
	return j
}

// unqueue removes queue entry i, copying the tail down so the backing
// array keeps its capacity.
func (q *TraceQueue) unqueue(i int) {
	n := copy(q.queue[i:], q.queue[i+1:])
	q.queue[i+n] = nil
	q.queue = q.queue[:i+n]
}

// Spec returns the prompt the job traces.
func (j *TraceJob) Spec() PromptSpec { return j.spec }

// Finish stores a started job's trace, nil when tracing panicked, and
// wakes a Take or Release waiting for it.
func (q *TraceQueue) Finish(j *TraceJob, its []*Iteration) {
	q.mu.Lock()
	j.its, j.state = its, jobDone
	q.mu.Unlock()
	q.finished.Broadcast()
}

// Take ends the job for the request's admission and returns a trace the
// caller owns from then on: the helper's, waiting for it while the
// helper is tracing. It returns nil when the helper has not started the
// job, which is then withdrawn and never traced, or when the helper's
// trace panicked; the caller traces the request itself. j must not be
// used again.
func (j *TraceJob) Take() []*Iteration { return j.end(true) }

// Release ends the job of a request that leaves without being admitted.
// An unstarted job is withdrawn and never traced; a finished trace goes
// back to the model's free list, after waiting for it while the helper
// is tracing. j must not be used again.
func (j *TraceJob) Release() {
	q := j.q
	if its := j.end(false); its != nil {
		q.m.free.put(its)
	}
}

// end withdraws or waits out the job, recycles its record and returns
// its trace; admitted counts the job in Taken.
func (j *TraceJob) end(admitted bool) []*Iteration {
	q := j.q
	q.mu.Lock()
	defer q.mu.Unlock()
	for j.state == jobRunning {
		q.finished.Wait()
	}
	if j.state == jobQueued {
		q.unqueue(slices.Index(q.queue, j))
	}
	its := j.its
	if admitted {
		q.taken++
		if its != nil {
			q.traced++
		}
	}
	*j = TraceJob{q: q}
	q.free = append(q.free, j)
	return its
}

// Taken reports how many jobs Take has ended and how many of them
// returned a helper-made trace. The first count follows from the
// callers' order of Add and Take alone; the second also depends on how
// far the helper got.
func (q *TraceQueue) Taken() (jobs, traced int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.taken, q.traced
}

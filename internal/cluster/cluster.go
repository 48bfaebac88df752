// Package cluster orchestrates N independent serving engines behind the
// admission → routing → instance → aggregation pipeline of a production
// fleet, under one shared virtual clock.
//
// Each arrival first passes the Admission policy (always-admit,
// token-bucket, reject-all); admitted requests are placed by the Router
// policy (round-robin, least-loaded, semantic-affinity) onto one of the
// per-instance serve.Engines, which execute independently via the engine's
// steppable surface. The shared-clock event loop interleaves cluster-level
// arrival events with per-instance iteration events: events are processed
// in virtual-time order, cluster events win ties against instance events,
// and simultaneous instance events resolve toward the lowest instance
// index — so a run is fully deterministic for a fixed trace and seed.
package cluster

import (
	"math"

	"finemoe/internal/faults"
	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// instance is one serving replica: an engine plus fleet bookkeeping.
type instance struct {
	// ID is the instance's stable identity within the fleet and its
	// index in the cluster's append-only instance list: IDs are assigned
	// in joining order and never reused, so an instance keeps its ID when
	// others join or retire.
	ID int
	// Engine is the replica's serving engine (its own policy and cache).
	Engine *serve.Engine
	// Submitted counts requests routed to this instance.
	Submitted int
	// StartedMS is the cluster time the instance joined the fleet
	// (0 for the initial fleet).
	StartedMS float64
	// Retiring marks an instance selected for scale-down: it receives no
	// further routes but keeps draining in the shared-clock loop.
	Retiring bool
	// RetiredMS is the cluster time of the shrink decision (meaningful
	// only when Retiring).
	RetiredMS float64
	// Crashed marks an instance halted by a fault-plan crash; CrashedMS
	// is the failure time. The fleet keeps routing to a crashed instance
	// until Detected (the fault plan's detection latency elapses), when
	// it leaves the routable fleet and its stranded requests are
	// harvested.
	Crashed   bool
	CrashedMS float64
	Detected  bool

	// observed is the prefix of the engine's completion history the
	// cluster has already consulted for follow-up injection.
	observed int
}

// state snapshots the instance's load view for admission and routing.
func (in *instance) state() InstanceState {
	return InstanceState{
		ID:          in.ID,
		QueueDepth:  in.Engine.QueueDepth(),
		InFlight:    in.Engine.InFlight(),
		Submitted:   in.Submitted,
		MemPressure: in.Engine.MemoryPressure(),
	}
}

// InstanceState is the admission/routing-visible view of one instance.
type InstanceState struct {
	ID         int
	QueueDepth int
	InFlight   int
	Submitted  int
	// MemPressure is the instance's host-DRAM thrash level: the decayed
	// fraction of recent expert fetches staged from below DRAM (0 under
	// the degenerate unbounded-DRAM configuration or when the working
	// set fits). The memory-aware router uses it as a placement
	// tiebreak.
	MemPressure float64
}

// ScaleEvent records one autoscaler-driven fleet resize.
type ScaleEvent struct {
	// TimeMS is the shared-clock time of the decision.
	TimeMS float64
	// Kind is "grow" or "shrink".
	Kind string
	// Instance is the ID of the instance joining (grow) or beginning to
	// drain (shrink).
	Instance int
	// ActiveAfter is the routable fleet size after the event.
	ActiveAfter int
}

// Options assembles a cluster.
type Options struct {
	// Engines are the per-instance serving engines, one per replica. Each
	// must be freshly constructed (engines are single-run).
	Engines []*serve.Engine
	// Admission gates arrivals (nil = always-admit).
	Admission Admission
	// Router places admitted requests (nil = round-robin).
	Router Router
	// Autoscaler, when non-nil, resizes the fleet: it is evaluated every
	// AutoscaleIntervalMS of shared-clock time during RunTrace and may
	// grow the fleet (via EngineFactory) or drain-then-retire an
	// instance.
	Autoscaler Autoscaler
	// EngineFactory builds a fresh cold-store engine for the given
	// instance ID when the autoscaler grows the fleet. Required when
	// Autoscaler is set.
	EngineFactory func(id int) *serve.Engine
	// MinInstances / MaxInstances bound the routable fleet size under
	// autoscaling (defaults: 1 and 4× the initial fleet).
	MinInstances, MaxInstances int
	// AutoscaleIntervalMS spaces autoscale ticks on the shared clock
	// (default 500 ms).
	AutoscaleIntervalMS float64
	// FollowUp, when non-nil, closes the workload loop: it is consulted
	// once per completed request with the completion metrics and the
	// original request, and may return a follow-up request to inject into
	// the arrival stream (ok=false ends the thread). Injected arrivals
	// pass through admission and routing like trace arrivals; arrival
	// times before the parent's completion are clamped forward to it.
	// Multi-turn session workloads ride on this hook (workload.Sessions).
	FollowUp func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool)
	// Workers is ignored: the cluster has one event loop.
	//
	// Deprecated: the epoch-sharded loop it selected never beat the
	// serial loop and was removed (ARCHITECTURE.md, "Sharded cluster
	// loop: removed").
	Workers int
	// FaultPlan, when non-empty, injects crashes, link brownouts and
	// expert-load stalls at fixed shared-clock times (see internal/faults
	// and faults.go). An empty plan leaves the run byte-identical to a
	// fault-free cluster.
	FaultPlan *faults.Plan
	// Resilience configures request-level fault tolerance: timeouts,
	// deterministic-backoff retries, hedging, per-tenant retry budgets
	// and crash requeue/replacement (see resilience.go).
	Resilience ResilienceOptions
}

// Cluster is a fleet of serving instances sharing one virtual clock. A
// cluster is built with New and run once, with RunStream or RunTrace.
type Cluster struct {
	instances []*instance
	admission Admission
	router    Router

	scaler   Autoscaler
	factory  func(id int) *serve.Engine
	minInst  int
	maxInst  int
	tickMS   float64
	nextTick float64
	initial  int
	events   []ScaleEvent

	// Next-event cache: a binary min-heap over instance indices keyed by
	// (cached Engine.NextEventTime, instance index), so the shared-clock
	// loop pays O(log n) per event instead of a full O(instances) scan —
	// the cost that dominates large autoscaled fleets. evtTimes caches
	// each instance's next event time as of its last refresh; evtPos maps
	// instance index to heap position. Entries are refreshed at exactly
	// the points an engine's event time can change: Submit, Cancel, Step,
	// Crash, and instance creation (spawn). The heap order (time asc,
	// index asc) reproduces the scan's lowest-index-wins tie-break, so
	// event order — and with it every golden — is byte-identical to the
	// linear scan.
	evtHeap  []int32
	evtTimes []float64
	evtPos   []int32

	followUp func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool)
	// inFlightReqs remembers each offered request until completion so the
	// follow-up hook can see the original (embedding, session, tenant);
	// populated only when followUp is set.
	inFlightReqs map[uint64]workload.Request
	// injected is the pending follow-up arrival queue, sorted by
	// ArrivalMS with stable insertion.
	injected []workload.Request
	// followUps counts injected requests.
	followUps int

	// Fault-plan state: the compiled event stream, a cursor into it, the
	// run's fault log, applied degradation windows, and the crash count.
	faultEvents []faults.Event
	faultNext   int
	flog        []FaultRecord
	degraded    []degWindow
	crashes     int

	// Resilience state (resOn): request sagas keyed by copy ID (lookups
	// and deletes only — never ranged) with a free list of resolved ones,
	// the pending reaction queue sorted by time in schedule order,
	// per-tenant retry budgets, completions that lost a hedge/retry race,
	// and the availability counters.
	resOn        bool
	res          ResilienceOptions
	records      map[uint64]*resRecord
	recFree      []*resRecord
	resEvents    []resEvent
	budgets      map[string]*tenantBudget
	stale        map[staleKey]bool
	failedReqs   int
	retries      int
	hedgedWins   int
	lostInFlight int

	// ahead is the gate-trace pipeline of the running RunStream (nil when
	// off; see pipeline.go). handOffs counts the Source traces it handed
	// to engines; feedJobs counts the admissions that took a job from its
	// admission feed, and feedTraces those that got the helper's trace.
	ahead                *tracePipeline
	handOffs             int
	feedJobs, feedTraces int

	// statesBuf is the reusable backing array for activeStates: the
	// routable-fleet snapshot is rebuilt on every offer and autoscale
	// tick, and the policy contract (Admission/Router/Autoscaler docs)
	// already forbids retaining the slice past the call, so one buffer
	// serves the whole run.
	statesBuf []InstanceState

	now      float64
	admitted int
	rejected int
}

// New builds a cluster over the given engines.
func New(opts Options) *Cluster {
	if len(opts.Engines) == 0 {
		panic("cluster: no engines")
	}
	if opts.Admission == nil {
		opts.Admission = NewAlwaysAdmit()
	}
	if opts.Router == nil {
		opts.Router = NewRoundRobin()
	}
	if opts.Autoscaler != nil && opts.EngineFactory == nil {
		panic("cluster: Autoscaler requires an EngineFactory")
	}
	if opts.MinInstances <= 0 {
		opts.MinInstances = 1
	}
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = 4 * len(opts.Engines)
	}
	if opts.MaxInstances < opts.MinInstances {
		opts.MaxInstances = opts.MinInstances
	}
	if opts.AutoscaleIntervalMS <= 0 {
		opts.AutoscaleIntervalMS = 500
	}
	c := &Cluster{
		admission: opts.Admission,
		router:    opts.Router,
		scaler:    opts.Autoscaler,
		factory:   opts.EngineFactory,
		minInst:   opts.MinInstances,
		maxInst:   opts.MaxInstances,
		tickMS:    opts.AutoscaleIntervalMS,
		nextTick:  opts.AutoscaleIntervalMS,
		initial:   len(opts.Engines),
		followUp:  opts.FollowUp,
	}
	if c.followUp != nil {
		c.inFlightReqs = map[uint64]workload.Request{}
	}
	if !opts.FaultPlan.Empty() {
		evs, err := opts.FaultPlan.Compile()
		if err != nil {
			panic("cluster: " + err.Error())
		}
		c.faultEvents = evs
	}
	if opts.Resilience.Enabled {
		c.resOn = true
		c.res = opts.Resilience
		c.records = map[uint64]*resRecord{}
		c.budgets = map[string]*tenantBudget{}
		c.stale = map[staleKey]bool{}
	} else {
		// Crash replacement works without request tracking.
		c.res.ReplaceOnCrash = opts.Resilience.ReplaceOnCrash
	}
	for i, e := range opts.Engines {
		if e == nil {
			panic("cluster: nil engine")
		}
		c.instances = append(c.instances, &instance{ID: i, Engine: e})
		c.evtPush(i)
	}
	return c
}

// --- next-event min-heap ----------------------------------------------------

// evtLess orders heap entries by (cached event time asc, instance index
// asc) — the same total order the linear scan's `<` induced, so ties still
// resolve toward the lowest instance index.
//
//finemoe:hotpath
func (c *Cluster) evtLess(a, b int32) bool {
	ta, tb := c.evtTimes[a], c.evtTimes[b]
	if ta != tb {
		return ta < tb
	}
	return a < b
}

//finemoe:hotpath
func (c *Cluster) evtSwap(i, j int) {
	c.evtHeap[i], c.evtHeap[j] = c.evtHeap[j], c.evtHeap[i]
	c.evtPos[c.evtHeap[i]] = int32(i)
	c.evtPos[c.evtHeap[j]] = int32(j)
}

//finemoe:hotpath
func (c *Cluster) evtUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !c.evtLess(c.evtHeap[pos], c.evtHeap[parent]) {
			return
		}
		c.evtSwap(pos, parent)
		pos = parent
	}
}

//finemoe:hotpath
func (c *Cluster) evtDown(pos int) {
	n := len(c.evtHeap)
	for {
		l, r := 2*pos+1, 2*pos+2
		small := pos
		if l < n && c.evtLess(c.evtHeap[l], c.evtHeap[small]) {
			small = l
		}
		if r < n && c.evtLess(c.evtHeap[r], c.evtHeap[small]) {
			small = r
		}
		if small == pos {
			return
		}
		c.evtSwap(pos, small)
		pos = small
	}
}

// evtPush registers instance idx (just appended to c.instances) with its
// engine's current next event time.
func (c *Cluster) evtPush(idx int) {
	c.evtTimes = append(c.evtTimes, c.instances[idx].Engine.NextEventTime())
	c.evtPos = append(c.evtPos, int32(len(c.evtHeap)))
	c.evtHeap = append(c.evtHeap, int32(idx))
	c.evtUp(len(c.evtHeap) - 1)
}

// refreshEvent re-reads instance idx's next event time and restores heap
// order. Call after any operation that can change it (Submit, Cancel,
// Step, Crash).
//
//finemoe:hotpath
func (c *Cluster) refreshEvent(idx int) {
	t := c.instances[idx].Engine.NextEventTime()
	if t == c.evtTimes[idx] {
		return
	}
	c.evtTimes[idx] = t
	pos := int(c.evtPos[idx])
	c.evtUp(pos)
	c.evtDown(int(c.evtPos[idx]))
}

// activeSize returns the routable fleet size (instances neither retiring
// nor detectedly crashed).
func (c *Cluster) activeSize() int {
	n := 0
	for _, in := range c.instances {
		if !in.Retiring && !in.Detected {
			n++
		}
	}
	return n
}

// activeStates snapshots the routable fleet — the view admission, routing
// and autoscaling observe. Entries are ordered by ascending instance ID
// (creation order), and each entry's ID is the instance's stable
// identity, not its position. A crashed instance stays routable until
// its crash is detected — the fleet cannot act on what it has not yet
// observed. The returned slice aliases the cluster's snapshot buffer and
// is valid only until the next snapshot (the same lifetime the policy
// interfaces already promise their callees).
func (c *Cluster) activeStates() []InstanceState {
	out := c.statesBuf[:0]
	for _, in := range c.instances {
		if !in.Retiring && !in.Detected {
			out = append(out, in.state())
		}
	}
	c.statesBuf = out[:0]
	return out
}

// offer runs one arrival through admission and routing at its arrival
// time (clamped forward to the cluster clock) and submits it to the
// chosen instance unless admission sheds it. Retiring and detectedly
// crashed instances are invisible to admission and routing.
//
// its is the arrival's gate trace when the pipeline traced it ahead (nil
// otherwise). The trace goes to the routed engine only when that engine
// serves the pipeline's model and has nothing queued, so the trace is
// consumed at once instead of waiting in memory behind a backlog;
// otherwise it is recycled, and the engine asks the pipeline's admission
// feed for it once the request enters its next admission set.
func (c *Cluster) offer(req workload.Request, its []*moe.Iteration) {
	if t := req.ArrivalMS; t > c.now {
		c.now = t
	}
	fleet := c.activeStates()
	// With every instance crashed or retired (reachable only under a
	// fault plan) there is nowhere to route, so the request is shed.
	if len(fleet) == 0 || !c.admission.Admit(req, c.now, fleet) {
		c.ahead.recycle(its)
		c.rejected++
		return
	}
	c.admitted++
	i := c.router.Route(req, c.now, fleet)
	if i < 0 || i >= len(fleet) {
		panic("cluster: router returned out-of-range instance")
	}
	in := c.instances[fleet[i].ID]
	in.Submitted++
	if its != nil && in.Engine.QueueDepth() == 0 && in.Engine.Model() == c.ahead.model {
		in.Engine.SubmitHandOff(req, its)
		c.handOffs++
	} else {
		c.ahead.recycle(its)
		in.Engine.Submit(req)
	}
	c.refreshEvent(in.ID)
	if c.resOn {
		c.trackDispatch(req, in)
	} else if c.followUp != nil {
		c.inFlightReqs[req.ID] = req
	}
}

// observeCompletions reacts to every request the instance completed
// since the last call. Called after every engine step, so observation
// order — and with it the whole run — stays deterministic. With
// resilience on, each completion is scheduled as a resilience event at
// its own completion time rather than applied here: cross-instance
// effects (hedge-loser cancellation, follow-up injection) then take
// effect at the copy's virtual completion time, after every earlier
// event. Otherwise the FollowUp hook (if any) is consulted directly.
func (c *Cluster) observeCompletions(in *instance) {
	if c.followUp == nil && !c.resOn {
		return
	}
	done := in.Engine.Completed()
	for _, m := range done[in.observed:] {
		if c.resOn {
			c.scheduleRes(resEvent{t: m.EndMS, k: rkComplete, instIdx: int32(in.ID), m: m})
			continue
		}
		orig, ok := c.inFlightReqs[m.ID]
		if !ok {
			continue
		}
		delete(c.inFlightReqs, m.ID)
		fu, ok := c.followUp(m, orig)
		if !ok {
			continue
		}
		if fu.ArrivalMS < m.EndMS {
			fu.ArrivalMS = m.EndMS
		}
		c.inject(fu)
	}
	in.observed = len(done)
}

// inject queues a follow-up arrival, keeping the queue sorted by arrival
// time with stable insertion (equal arrivals preserve injection order).
func (c *Cluster) inject(req workload.Request) {
	c.followUps++
	i := len(c.injected)
	for i > 0 && c.injected[i-1].ArrivalMS > req.ArrivalMS {
		i--
	}
	c.injected = append(c.injected, workload.Request{})
	copy(c.injected[i+1:], c.injected[i:])
	c.injected[i] = req
}

// popInjected removes and returns the earliest queued follow-up,
// compacting in place rather than reslicing so popped requests (and
// their embeddings) do not stay reachable through the backing array for
// the lifetime of a long-running fleet.
func (c *Cluster) popInjected() workload.Request {
	q := c.injected[0]
	copy(c.injected, c.injected[1:])
	c.injected[len(c.injected)-1] = workload.Request{}
	c.injected = c.injected[:len(c.injected)-1]
	return q
}

// autoscale evaluates the policy at one shared-clock tick and applies at
// most one resize: Grow spins up a fresh cold-store instance via the
// factory; Shrink marks the least-loaded active instance retiring (ties
// retire the youngest, so the seed fleet survives longest). Bounds are
// enforced here, so policies need not know Min/MaxInstances.
func (c *Cluster) autoscale(nowMS float64) {
	fleet := c.activeStates()
	d := c.scaler.Decide(nowMS, fleet)
	applied := false
	switch d {
	case Grow:
		if len(fleet) >= c.maxInst {
			break
		}
		in := c.spawn(nowMS)
		c.events = append(c.events, ScaleEvent{
			TimeMS: nowMS, Kind: "grow", Instance: in.ID, ActiveAfter: len(fleet) + 1,
		})
		applied = true
	case Shrink:
		if len(fleet) <= c.minInst {
			break
		}
		victim := ShrinkVictim(fleet)
		in := c.instances[victim]
		in.Retiring = true
		in.RetiredMS = nowMS
		c.events = append(c.events, ScaleEvent{
			TimeMS: nowMS, Kind: "shrink", Instance: victim, ActiveAfter: len(fleet) - 1,
		})
		applied = true
	}
	NotifyDecision(c.scaler, d, applied)
}

// spawn joins a fresh cold-store instance from the factory at cluster
// time t (an autoscaler grow or a crash replacement). Its ID is its
// index in the instance list.
func (c *Cluster) spawn(t float64) *instance {
	id := len(c.instances)
	e := c.factory(id)
	if e == nil {
		panic("cluster: EngineFactory returned nil engine")
	}
	// Align the fresh engine's clock with the fleet so its requests are
	// not timestamped in its pre-spawn past.
	e.AdvanceClock(t)
	if c.ahead != nil && e.Model() == c.ahead.model {
		e.SetTraceQueue(c.ahead.jobs)
	}
	in := &instance{ID: id, Engine: e, StartedMS: t}
	c.instances = append(c.instances, in)
	c.evtPush(id)
	return in
}

// nextInstanceEvent returns the earliest per-instance event time and its
// instance index (lowest index wins ties); +Inf when all are drained. The
// answer comes from the cached next-event heap — O(1) instead of the
// O(instances) scan the seed paid per shared-clock event.
//
//finemoe:hotpath
func (c *Cluster) nextInstanceEvent() (float64, int) {
	if len(c.evtHeap) == 0 {
		return math.Inf(1), -1
	}
	root := c.evtHeap[0]
	t := c.evtTimes[root]
	if math.IsInf(t, 1) {
		return t, -1
	}
	return t, int(root)
}

// nextInstanceEventScan is the seed's linear scan, kept as the reference
// the heap is property-tested against (eventheap_test.go).
func (c *Cluster) nextInstanceEventScan() (float64, int) {
	t, which := math.Inf(1), -1
	for i, in := range c.instances {
		if et := in.Engine.NextEventTime(); et < t {
			t, which = et, i
		}
	}
	return t, which
}

// RunTrace replays an arrival trace (sorted by ArrivalMS) through the
// pipeline: the shared-clock loop merges arrival events (trace arrivals
// and injected follow-ups), autoscale ticks and instance iteration
// events, processing whichever is earlier, then drains the fleet and
// aggregates. Event priority at equal times is arrival → autoscale tick →
// instance, so routing sees fleet state as of T, the autoscaler observes
// arrivals at T, and both precede instance work at T; a trace arrival and
// a follow-up at the same instant resolve toward the trace. Ticks
// continue through the final drain (so idle shrink happens) and stop once
// the trace is exhausted, every follow-up has been offered, and every
// instance is drained.
//
// RunTrace is RunStream over the trace's SliceSource — the streaming
// loop IS the trace loop, so the two cannot diverge.
func (c *Cluster) RunTrace(trace []workload.Request) *Result {
	return c.RunStream(workload.NewSliceSource(trace))
}

// RunStream is RunTrace over a streaming workload source: arrivals are
// drawn one at a time, so a multi-million-request horizon costs the
// in-flight window's memory, not the trace's. The shared-clock loop only
// ever needs the NEXT pending arrival — its time to schedule against
// instance/fault/tick events, and its payload when the arrival wins — so
// a one-request lookahead cursor over the source reproduces the
// materialized loop's event schedule exactly; stream_test.go pins byte
// parity across every workload shape and fault plan.
//
// When the runtime has more than one CPU and the whole fleet serves one
// model, RunStream reads src on a helper goroutine, up to traceAhead
// requests ahead, and simulates each request's gate trace there; the
// same helper traces each engine's next admission set (see pipeline.go).
// The helper has exited by the time RunStream returns.
func (c *Cluster) RunStream(src workload.Source) *Result {
	c.run(src)
	return c.finalize()
}

// run is the shared-clock loop behind RunStream: it merges source
// arrivals, injected follow-ups, autoscale ticks and instance events
// until the source is exhausted, the injected queue is empty, and every
// instance is drained. Every event is processed on this goroutine; the
// gate-trace pipeline's helper only reads src and simulates gate traces
// ahead of it.
func (c *Cluster) run(src workload.Source) {
	if m := c.sharedModel(); m != nil {
		c.ahead = startPipeline(m, src)
		for _, in := range c.instances {
			in.Engine.SetTraceQueue(c.ahead.jobs)
		}
		defer func() {
			c.ahead.close()
			c.feedJobs, c.feedTraces = c.ahead.jobs.Taken()
			c.ahead = nil
		}()
	}
	cursor := newReqCursor(src, c.ahead)
	for {
		tArr, fromTrace := cursor.peek(), true
		if len(c.injected) > 0 && c.injected[0].ArrivalMS < tArr {
			tArr, fromTrace = c.injected[0].ArrivalMS, false
		}
		tInst, which := c.nextInstanceEvent()
		tFault := math.Inf(1)
		if c.faultNext < len(c.faultEvents) {
			tFault = c.faultEvents[c.faultNext].TimeMS
		}
		tRes := math.Inf(1)
		if len(c.resEvents) > 0 {
			tRes = c.resEvents[0].t
		}
		idle := math.IsInf(tArr, 1) && which < 0
		if idle && math.IsInf(tFault, 1) && math.IsInf(tRes, 1) {
			break
		}
		tTick := math.Inf(1)
		if c.scaler != nil && !idle {
			// idle freezes ticks: with no arrivals and no instance work
			// left, only trailing fault/resilience events remain, and the
			// loop of a fault-free run would already have exited — letting
			// ticks run on would append unbounded idle shrinks.
			tTick = c.nextTick
		}
		// Event priority at equal times: fault → resilience → arrival
		// (trace before injected) → autoscale tick → instance. Faults act
		// before anything can observe the instant's state, resilience
		// reactions precede the arrivals they may race with, and the
		// pre-existing arrival → tick → instance order is unchanged.
		if tFault <= tRes && tFault <= tArr && tFault <= tTick && tFault <= tInst {
			c.applyFault(c.faultEvents[c.faultNext])
			c.faultNext++
			continue
		}
		if tRes <= tArr && tRes <= tTick && tRes <= tInst {
			if tRes > c.now {
				c.now = tRes
			}
			c.processResEvent(c.popResEvent())
			continue
		}
		if tArr <= tTick && tArr <= tInst {
			if fromTrace {
				c.offer(cursor.pop())
			} else {
				c.offer(c.popInjected(), nil)
			}
			continue
		}
		if tTick <= tInst {
			if tTick > c.now {
				c.now = tTick
			}
			c.autoscale(tTick)
			c.nextTick += c.tickMS
			continue
		}
		c.instances[which].Engine.Step(tInst)
		c.refreshEvent(which)
		c.observeCompletions(c.instances[which])
	}
	// Every record is resolved and released; the free list only served
	// the run's dispatches, so a finished cluster does not keep its peak
	// record count live.
	c.recFree = nil
}

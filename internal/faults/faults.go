// Package faults declares seed-deterministic fault plans for the cluster
// simulator: instance crashes with configurable detection latency, link
// brownouts that scale a memsim.Link's bandwidth over a time window, and
// expert-load stalls that freeze a link outright.
//
// A Plan is declarative — a set of crash/brownout/stall specs — and
// compiles into a flat, sorted event stream the cluster's shared-clock
// loop merges with arrivals, autoscale ticks and instance events. The
// compile order is a pure function of the plan (specs expand in slice
// order, events sort stably by time), so two runs of the same plan
// produce byte-identical fault streams.
//
// Tie-breaks are pinned end to end: among fault events at the same
// instant, compile (sequence) order wins; against the rest of the loop,
// fault events process before arrivals, ticks and instance events at the
// same instant (see internal/cluster).
package faults

import (
	"fmt"
	"math"
	"slices"
)

// LinkClass selects which of an instance's transfer links a brownout or
// stall degrades.
type LinkClass uint8

const (
	// LinkPCIe targets the per-GPU host links (DRAM -> HBM).
	LinkPCIe LinkClass = iota
	// LinkStaging targets the staging links below DRAM (the NVMe tier's
	// shared channel in the three-tier hierarchy).
	LinkStaging
)

// String implements fmt.Stringer.
func (l LinkClass) String() string {
	if l == LinkStaging {
		return "staging"
	}
	return "pcie"
}

// Kind enumerates compiled fault-event kinds.
type Kind uint8

const (
	// KindCrash halts an instance: its engine stops serving, but the
	// fleet keeps routing to it until the matching KindDetect.
	KindCrash Kind = iota
	// KindDetect is the crash becoming visible: the instance leaves the
	// routable fleet, stranded requests are lost or re-queued per the
	// resilience policy, and a cold replacement may spawn.
	KindDetect
	// KindBrownout scales the target links' bandwidth by Factor.
	KindBrownout
	// KindRestore ends a brownout window (bandwidth scale back to 1).
	KindRestore
	// KindStall freezes the target links until EndMS (an expert-load
	// stall: queued and on-demand transfers wait out the window).
	KindStall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindDetect:
		return "detect"
	case KindBrownout:
		return "brownout"
	case KindRestore:
		return "restore"
	case KindStall:
		return "stall"
	}
	return "unknown"
}

// AllInstances targets every non-crashed instance alive when the event
// fires.
const AllInstances = -1

// Crash schedules one instance failure.
type Crash struct {
	// AtMS is the failure time on the shared clock.
	AtMS float64
	// Instance is the target's stable cluster instance ID.
	Instance int
	// DetectMS is the detection latency: the fleet keeps routing to the
	// dead instance for this long after AtMS (0 = detected immediately).
	DetectMS float64
}

// Brownout schedules a bandwidth-degradation window on one link class.
type Brownout struct {
	// AtMS and DurationMS bound the window.
	AtMS, DurationMS float64
	// Link selects the degraded link class.
	Link LinkClass
	// Factor scales the links' bandwidth during the window, in (0, 1].
	Factor float64
	// Instance is the target's stable ID, or AllInstances.
	Instance int
}

// Stall schedules an expert-load stall: the target links are frozen for
// the window (transfers issued during it wait until the window ends).
type Stall struct {
	// AtMS and DurationMS bound the window.
	AtMS, DurationMS float64
	// Link selects the stalled link class.
	Link LinkClass
	// Instance is the target's stable ID, or AllInstances.
	Instance int
}

// Plan is a declarative fault schedule.
type Plan struct {
	Crashes   []Crash
	Brownouts []Brownout
	Stalls    []Stall
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool {
	return p == nil || len(p.Crashes)+len(p.Brownouts)+len(p.Stalls) == 0
}

// Validate checks every spec's parameters. Times, durations, detection
// latencies and factors must be finite, and so must every window end: a
// NaN or infinite event time never fires, so the cluster loop could
// neither reach it nor finish without it.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, c := range p.Crashes {
		if !finiteTime(c.AtMS) || !finiteTime(c.DetectMS) || !finiteTime(c.AtMS+c.DetectMS) {
			return fmt.Errorf("faults: crash %d: time %v with detection latency %v, want finite and non-negative", i, c.AtMS, c.DetectMS)
		}
		if c.Instance < 0 {
			return fmt.Errorf("faults: crash %d: instance must be a concrete ID", i)
		}
	}
	for i, b := range p.Brownouts {
		if !window(b.AtMS, b.DurationMS) {
			return fmt.Errorf("faults: brownout %d: window %v+%v, want a finite non-negative start and positive duration", i, b.AtMS, b.DurationMS)
		}
		if !(b.Factor > 0 && b.Factor <= 1) {
			return fmt.Errorf("faults: brownout %d: factor %v outside (0, 1]", i, b.Factor)
		}
		if b.Instance < AllInstances {
			return fmt.Errorf("faults: brownout %d: bad instance %d", i, b.Instance)
		}
	}
	for i, s := range p.Stalls {
		if !window(s.AtMS, s.DurationMS) {
			return fmt.Errorf("faults: stall %d: window %v+%v, want a finite non-negative start and positive duration", i, s.AtMS, s.DurationMS)
		}
		if s.Instance < AllInstances {
			return fmt.Errorf("faults: stall %d: bad instance %d", i, s.Instance)
		}
	}
	return nil
}

// finiteTime reports whether t is finite and non-negative. NaN fails
// both comparisons.
func finiteTime(t float64) bool { return t >= 0 && t <= math.MaxFloat64 }

// window reports whether [at, at+dur] has a finite non-negative start, a
// positive duration and a finite end (which bounds dur as well).
func window(at, dur float64) bool {
	return finiteTime(at) && dur > 0 && finiteTime(at+dur)
}

// Event is one compiled fault occurrence, ready for the shared-clock
// merge.
type Event struct {
	// TimeMS is when the event fires.
	TimeMS float64
	// Kind is the event's action.
	Kind Kind
	// Instance is the target's stable ID (AllInstances for fleet-wide
	// brownouts/stalls; always concrete for crash/detect).
	Instance int
	// Link and Factor parameterize brownout/restore/stall events.
	Link   LinkClass
	Factor float64
	// EndMS closes the window for brownout and stall events (restore
	// events carry their window's start in StartMS for accounting).
	EndMS float64
	// seq pins the order of equal-time events to compile order.
	seq int
}

// Compile expands the plan into its sorted event stream: crashes become
// crash+detect pairs, brownouts become brownout+restore pairs, stalls a
// single stall event. Events are ordered by (TimeMS, compile sequence),
// so equal-time events fire in spec order — crashes first, then
// brownouts, then stalls, each in slice order — and the stream is a pure
// function of the plan.
func (p *Plan) Compile() ([]Event, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	evs := make([]Event, 0, 2*len(p.Crashes)+2*len(p.Brownouts)+len(p.Stalls))
	seq := 0
	push := func(e Event) {
		e.seq = seq
		seq++
		evs = append(evs, e)
	}
	for _, c := range p.Crashes {
		push(Event{TimeMS: c.AtMS, Kind: KindCrash, Instance: c.Instance})
		push(Event{TimeMS: c.AtMS + c.DetectMS, Kind: KindDetect, Instance: c.Instance})
	}
	for _, b := range p.Brownouts {
		end := b.AtMS + b.DurationMS
		push(Event{TimeMS: b.AtMS, Kind: KindBrownout, Instance: b.Instance,
			Link: b.Link, Factor: b.Factor, EndMS: end})
		push(Event{TimeMS: end, Kind: KindRestore, Instance: b.Instance,
			Link: b.Link, Factor: 1})
	}
	for _, s := range p.Stalls {
		push(Event{TimeMS: s.AtMS, Kind: KindStall, Instance: s.Instance,
			Link: s.Link, EndMS: s.AtMS + s.DurationMS})
	}
	slices.SortStableFunc(evs, func(a, b Event) int {
		switch {
		case a.TimeMS < b.TimeMS:
			return -1
		case a.TimeMS > b.TimeMS:
			return 1
		default:
			return a.seq - b.seq
		}
	})
	return evs, nil
}

// String renders the event for fault logs ("5000.0ms crash i1").
func (e Event) String() string {
	target := fmt.Sprintf("i%d", e.Instance)
	if e.Instance == AllInstances {
		target = "all"
	}
	switch e.Kind {
	case KindBrownout:
		return fmt.Sprintf("%.1fms brownout %s %s x%.3f until %.1fms",
			e.TimeMS, target, e.Link, e.Factor, e.EndMS)
	case KindRestore:
		return fmt.Sprintf("%.1fms restore %s %s", e.TimeMS, target, e.Link)
	case KindStall:
		return fmt.Sprintf("%.1fms stall %s %s until %.1fms", e.TimeMS, target, e.Link, e.EndMS)
	}
	return fmt.Sprintf("%.1fms %s %s", e.TimeMS, e.Kind, target)
}

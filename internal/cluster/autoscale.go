package cluster

import "math"

// Decision is an autoscaler's verdict for one shared-clock tick.
type Decision int

const (
	// Hold keeps the fleet at its current size.
	Hold Decision = iota
	// Grow asks the cluster to spin up one fresh instance.
	Grow
	// Shrink asks the cluster to drain-then-retire one instance.
	Shrink
)

// String names the decision in logs and results.
func (d Decision) String() string {
	switch d {
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	}
	return "hold"
}

// Autoscaler is the fleet-sizing policy. The cluster evaluates it at
// fixed shared-clock intervals (Options.AutoscaleIntervalMS) with the
// routable (non-retiring) fleet view; one decision resizes the fleet by
// at most one instance. Implementations may keep state (pressure
// timers); they are driven sequentially by the shared-clock loop and
// need no locking.
type Autoscaler interface {
	// Name identifies the policy in results.
	Name() string
	// Decide observes the active fleet at one tick and returns the
	// scaling verdict.
	Decide(nowMS float64, fleet []InstanceState) Decision
}

// DecisionFeedback is an optional Autoscaler extension: orchestrators
// that enforce fleet-size bounds report whether the last non-Hold
// decision was applied or refused (fleet already at Min/MaxInstances),
// so pacing state such as cooldowns charges only for applied resizes.
// Policies that do not implement it are charged for every decision.
type DecisionFeedback interface {
	DecisionApplied(d Decision, applied bool)
}

// NotifyDecision reports a non-hold decision's outcome to policies that
// implement DecisionFeedback; every orchestrator enforcing fleet bounds
// must call it so refused resizes do not consume the policy's cooldown.
func NotifyDecision(a Autoscaler, d Decision, applied bool) {
	if d == Hold {
		return
	}
	if fb, ok := a.(DecisionFeedback); ok {
		fb.DecisionApplied(d, applied)
	}
}

// ShrinkVictim returns the ID of the instance a shrink should retire —
// the least-loaded (queued + in-flight), ties retiring the youngest so
// the seed fleet survives longest — or -1 for an empty fleet. Shared by
// every orchestrator so victim selection cannot drift between them.
func ShrinkVictim(fleet []InstanceState) int {
	victim, load := -1, 0
	for _, st := range fleet {
		if victim < 0 || st.load() < load || (st.load() == load && st.ID > victim) {
			victim, load = st.ID, st.load()
		}
	}
	return victim
}

// QueuePressureOptions tunes the hysteresis-banded queue-pressure
// autoscaler.
type QueuePressureOptions struct {
	// HighWatermark is the mean queued+in-flight load per instance above
	// which the fleet grows, once sustained (default 4).
	HighWatermark float64
	// LowWatermark is the mean load below which the fleet shrinks, once
	// sustained (default 0.5). Loads inside (Low, High] hold, giving the
	// hysteresis band that prevents flapping.
	LowWatermark float64
	// SustainMS is how long pressure must continuously sit beyond a
	// watermark before the policy acts (default 300 ms). Any tick back
	// inside the band resets the timer.
	SustainMS float64
	// CooldownMS is the minimum gap between two scale actions
	// (default: SustainMS).
	CooldownMS float64
}

func (o QueuePressureOptions) withDefaults() QueuePressureOptions {
	if o.HighWatermark <= 0 {
		o.HighWatermark = 4
	}
	if o.LowWatermark <= 0 {
		o.LowWatermark = 0.5
	}
	if o.LowWatermark >= o.HighWatermark {
		o.LowWatermark = o.HighWatermark / 2
	}
	if o.SustainMS <= 0 {
		o.SustainMS = 300
	}
	if o.CooldownMS <= 0 {
		o.CooldownMS = o.SustainMS
	}
	return o
}

// queuePressure grows the fleet when mean per-instance load (queued +
// in-flight) stays above a high watermark for a sustained window and
// shrinks it when load stays below a low watermark; the band between the
// watermarks is dead, so a queue oscillating across both watermarks
// keeps resetting the sustain timers and the fleet never flaps.
type queuePressure struct {
	opts       QueuePressureOptions
	aboveSince float64 // NaN = not continuously above the high watermark
	belowSince float64 // NaN = not continuously below the low watermark
	lastAction float64
	prevAction float64 // lastAction before the most recent decision, for rollback
}

// NewQueuePressure returns the hysteresis-banded queue-pressure
// autoscaler.
func NewQueuePressure(opts QueuePressureOptions) Autoscaler {
	return &queuePressure{
		opts:       opts.withDefaults(),
		aboveSince: math.NaN(),
		belowSince: math.NaN(),
		lastAction: math.Inf(-1),
		prevAction: math.Inf(-1),
	}
}

func (q *queuePressure) Name() string { return "queue-pressure" }

func (q *queuePressure) Decide(nowMS float64, fleet []InstanceState) Decision {
	if len(fleet) == 0 {
		return Hold
	}
	total := 0
	for _, st := range fleet {
		total += st.load()
	}
	mean := float64(total) / float64(len(fleet))
	switch {
	case mean > q.opts.HighWatermark:
		q.belowSince = math.NaN()
		if math.IsNaN(q.aboveSince) {
			q.aboveSince = nowMS
		}
		if nowMS-q.aboveSince >= q.opts.SustainMS && nowMS-q.lastAction >= q.opts.CooldownMS {
			q.prevAction, q.lastAction = q.lastAction, nowMS
			return Grow
		}
	case mean < q.opts.LowWatermark:
		q.aboveSince = math.NaN()
		if math.IsNaN(q.belowSince) {
			q.belowSince = nowMS
		}
		if nowMS-q.belowSince >= q.opts.SustainMS && nowMS-q.lastAction >= q.opts.CooldownMS {
			q.prevAction, q.lastAction = q.lastAction, nowMS
			return Shrink
		}
	default:
		q.aboveSince = math.NaN()
		q.belowSince = math.NaN()
	}
	return Hold
}

// DecisionApplied implements DecisionFeedback: a decision the
// orchestrator refused at its fleet bounds must not consume the
// cooldown, or a fleet pinned at MaxInstances under load would keep
// pushing the next real resize one cooldown window into the future.
func (q *queuePressure) DecisionApplied(_ Decision, applied bool) {
	if !applied {
		q.lastAction = q.prevAction
	}
}

// Package memsim simulates the hardware substrate of the paper's testbeds:
// GPUs with HBM-bandwidth-bound compute, CPU memory behind per-GPU PCIe
// links, and expert-parallel placement of MoE experts across devices.
//
// All timing is virtual: the serving engine advances a millisecond clock and
// the cluster lazily schedules queued transfers up to that instant. This
// reproduces the latency structure that governs offloading systems —
// compute/transfer overlap for asynchronous prefetching, serialization for
// synchronous fetching, queueing on a contended link, and preemption by
// on-demand loads — without any real GPU.
package memsim

import (
	"fmt"
	"math"

	"finemoe/internal/moe"
)

// GPUSpec describes one GPU model's performance envelope.
type GPUSpec struct {
	// Name identifies the device ("RTX 3090", "A100-80GB").
	Name string
	// MemBytes is the device memory capacity.
	MemBytes int64
	// HBMGBps is device-memory bandwidth in GB/s; decode-phase compute is
	// modeled as weight-read time (memory-bound, §2.1).
	HBMGBps float64
	// FP16TFLOPS is peak half-precision throughput; prefill-phase compute
	// is FLOPs-bound (§2.1).
	FP16TFLOPS float64
	// PCIeGBps is host-to-device transfer bandwidth in GB/s — the paper's
	// testbed uses PCIe 4.0 at 32 GB/s (§6.1).
	PCIeGBps float64
	// PerLayerOverheadMS models the serving-framework overhead per
	// Transformer layer per iteration (kernel launches, Python dispatch
	// in the HuggingFace stack the paper builds on).
	PerLayerOverheadMS float64
	// TransferLatencyMS is the fixed per-copy overhead of one
	// host-to-device transfer (driver dispatch, pinned-buffer staging).
	// It dominates for small experts (Qwen) and penalizes designs that
	// issue many small synchronous copies.
	TransferLatencyMS float64
}

// RTX3090 returns the paper's six-GPU testbed device (§6.1).
func RTX3090() GPUSpec {
	return GPUSpec{
		Name:               "RTX 3090",
		MemBytes:           24 << 30,
		HBMGBps:            936,
		FP16TFLOPS:         71,
		PCIeGBps:           32,
		PerLayerOverheadMS: 8,
		TransferLatencyMS:  1.0,
	}
}

// A100 returns the high-end testbed of §6.5: 80 GB HBM2e at 2 TB/s.
func A100() GPUSpec {
	return GPUSpec{
		Name:               "A100-80GB",
		MemBytes:           80 << 30,
		HBMGBps:            2039,
		FP16TFLOPS:         312,
		PCIeGBps:           64,
		PerLayerOverheadMS: 2,
		TransferLatencyMS:  0.5,
	}
}

// TransferMS returns the PCIe transfer time for n bytes in milliseconds.
func (g GPUSpec) TransferMS(n int64) float64 {
	return float64(n) / (g.PCIeGBps * 1e6) // bytes / (GB/s * 1e6 B/ms)
}

// ReadMS returns the HBM weight-read time for n bytes in milliseconds.
func (g GPUSpec) ReadMS(n int64) float64 {
	return float64(n) / (g.HBMGBps * 1e6)
}

// FlopsMS returns the compute time for f half-precision FLOPs in
// milliseconds, assuming 40% of peak utilization (typical for prefill
// GEMMs in serving frameworks).
func (g GPUSpec) FlopsMS(f float64) float64 {
	return f / (g.FP16TFLOPS * 1e9 * 0.4)
}

// transferState tracks where an expert's transfer stands.
type transferState int

const (
	stateNone transferState = iota
	stateQueued
	stateInflight
)

// Transfer is one host-to-device expert copy.
type Transfer struct {
	Ref moe.ExpertRef
	// IssueTime is when the transfer may begin (for asynchronous
	// prefetches this includes the search latency that produced it).
	IssueTime float64
	// Priority orders queued prefetches (higher first); the paper's
	// prefetching priority is p/(l - l_now) (§4.5).
	Priority float64
	// Start and End are filled in once the link schedules the copy.
	Start, End float64
	// OnDemand marks a blocking miss load.
	OnDemand bool
}

// Link is one expert-copy channel between two adjacent memory tiers — a
// GPU's PCIe host link, or a shared staging link deeper in the hierarchy:
// a single-transfer-at-a-time channel with a priority queue of pending
// prefetches and support for on-demand preemption with prefetch pausing
// (§4.5).
type Link struct {
	gbps  float64 // nominal bandwidth in GB/s
	latMS float64 // fixed per-copy latency in ms
	bytes int64   // bytes per expert on this model
	scale float64 // bandwidth multiplier (brownouts; 1 = nominal)

	queue        []*Transfer // pending, unscheduled
	free         []*Transfer // recycled records; Prefetch reuses before allocating
	current      *Transfer   // scheduled with End > drained time
	freeAt       float64     // when the prefetch stream finishes scheduled work
	demandFreeAt float64     // when the on-demand stream becomes free
	pausedUntil  float64     // prefetch pause horizon from on-demand loads
	completed    []Transfer  // drained by AdvanceTo callers

	state map[moe.ExpertRef]transferState

	// stats
	prefetchCount, onDemandCount int
	busyMS                       float64
}

// NewLink builds a GPU host link (PCIe bandwidth and per-copy latency from
// the device spec) transferring expertBytes-sized units.
func NewLink(spec GPUSpec, expertBytes int64) *Link {
	return NewRawLink(spec.PCIeGBps, spec.TransferLatencyMS, expertBytes)
}

// NewRawLink builds a link from raw channel parameters: bandwidth in GB/s
// and fixed per-copy latency in ms. Staging links between host tiers
// (NVMe -> DRAM) are built this way.
func NewRawLink(gbps, latencyMS float64, expertBytes int64) *Link {
	return &Link{gbps: gbps, latMS: latencyMS, bytes: expertBytes, scale: 1, state: map[moe.ExpertRef]transferState{}}
}

func (l *Link) durMS() float64 { return l.latMS + float64(l.bytes)/(l.gbps*l.scale*1e6) }

// SetBandwidthScale applies a multiplicative factor to the link's
// bandwidth — the brownout knob. It affects transfers scheduled from the
// call on; transfers already scheduled keep their start/end times
// (iterations, like transfers, are atomic in virtual time). Scale 1
// restores nominal bandwidth and is exact: the scaled duration
// computation multiplies by 1, so an un-browned-out link is
// byte-identical to one that never had the knob.
func (l *Link) SetBandwidthScale(f float64) {
	if f <= 0 {
		panic("memsim: non-positive bandwidth scale")
	}
	l.scale = f
}

// Stall freezes the link until untilMS — an expert-load stall: queued
// prefetches pause and the on-demand stream becomes free no earlier than
// untilMS, so loads issued during the window wait it out. A no-op when
// the link is already paused/busy past untilMS.
func (l *Link) Stall(untilMS float64) {
	l.pausedUntil = math.Max(l.pausedUntil, untilMS)
	l.demandFreeAt = math.Max(l.demandFreeAt, untilMS)
}

// Tracked reports whether ref is queued or in flight.
func (l *Link) Tracked(ref moe.ExpertRef) bool { return l.state[ref] != stateNone }

// Prefetch enqueues an asynchronous expert copy. Duplicate requests for a
// tracked expert are ignored (returns false).
func (l *Link) Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool {
	if l.state[ref] != stateNone {
		return false
	}
	t := l.newTransfer()
	*t = Transfer{Ref: ref, IssueTime: issueTime, Priority: priority}
	l.queue = append(l.queue, t)
	l.state[ref] = stateQueued
	l.prefetchCount++
	return true
}

// newTransfer pops the free list, allocating only while the list warms up
// or when every record is queued or in flight.
//
//finemoe:allocok grows the transfer free list; steady state recycles records returned by schedule and OnDemand
func (l *Link) newTransfer() *Transfer {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free = l.free[:n-1]
		return t
	}
	return &Transfer{}
}

// AdvanceTo processes the transfer schedule up to time now and returns the
// transfers completed since the last drain, in completion order. The
// returned slice aliases the link's completion buffer, valid only until
// the link's next scheduling activity (another AdvanceTo, OnDemand, or
// Prefetch); callers that retain completions must copy them out. Reusing
// the buffer keeps the drain cycle allocation-free in steady state — this
// runs once per simulated layer in the serving hot path.
func (l *Link) AdvanceTo(now float64) []Transfer {
	l.schedule(now)
	out := l.completed
	l.completed = l.completed[:0]
	return out
}

// schedule processes the transfer timeline up to now, accumulating
// completions in l.completed without draining them.
func (l *Link) schedule(now float64) {
	for {
		if l.current != nil {
			if l.current.End > now {
				break
			}
			l.finish(*l.current)
			l.free = append(l.free, l.current)
			l.current = nil
		}
		next := l.pickNext(now)
		if next == nil {
			break
		}
		start := math.Max(l.freeAt, math.Max(next.IssueTime, l.pausedUntil))
		next.Start = start
		next.End = start + l.durMS()
		l.freeAt = next.End
		l.busyMS += l.durMS()
		l.state[next.Ref] = stateInflight
		l.current = next
	}
}

// pickNext removes and returns the highest-priority queued transfer that
// could start by now, or nil.
func (l *Link) pickNext(now float64) *Transfer {
	best := -1
	for i, t := range l.queue {
		start := math.Max(l.freeAt, math.Max(t.IssueTime, l.pausedUntil))
		if start > now {
			continue
		}
		if best < 0 || t.Priority > l.queue[best].Priority {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := l.queue[best]
	l.queue = append(l.queue[:best], l.queue[best+1:]...)
	return t
}

func (l *Link) finish(t Transfer) {
	l.completed = append(l.completed, t)
	delete(l.state, t.Ref)
}

// OnDemand performs a blocking miss load at time now and returns the time
// the expert becomes available. On-demand loads run on a dedicated
// high-priority copy stream (as CUDA serving stacks do), so they do not
// queue behind an in-flight prefetch; per the paper's §4.5 they pause
// pending prefetches until the missed expert arrives. If the requested
// expert is itself in flight, the load waits for that transfer; if it is
// queued, the queued prefetch is promoted instead of copying twice.
// Consecutive on-demand loads on one link still serialize with each other
// (tracked by demandFreeAt).
func (l *Link) OnDemand(ref moe.ExpertRef, now float64) float64 {
	l.schedule(now)
	switch l.state[ref] {
	case stateInflight:
		// Wait for the in-flight prefetch of this very expert.
		end := l.current.End
		l.pausedUntil = math.Max(l.pausedUntil, end)
		l.schedule(end)
		return end
	case stateQueued:
		// Promote the queued prefetch to an immediate on-demand load.
		for i, t := range l.queue {
			if t.Ref == ref {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				l.free = append(l.free, t)
				break
			}
		}
		delete(l.state, ref)
	}
	start := math.Max(now, l.demandFreeAt)
	end := start + l.durMS()
	l.demandFreeAt = end
	// Pause prefetching until the on-demand load completes (§4.5).
	l.pausedUntil = math.Max(l.pausedUntil, end)
	l.busyMS += l.durMS()
	l.onDemandCount++
	l.completed = append(l.completed, Transfer{Ref: ref, IssueTime: now, Start: start, End: end, OnDemand: true})
	return end
}

// QueueLen returns the number of pending (unscheduled) transfers.
func (l *Link) QueueLen() int { return len(l.queue) }

// Stats summarizes link activity.
type LinkStats struct {
	Prefetches, OnDemands int
	BusyMS                float64
}

// Stats returns cumulative link statistics.
func (l *Link) Stats() LinkStats {
	return LinkStats{Prefetches: l.prefetchCount, OnDemands: l.onDemandCount, BusyMS: l.busyMS}
}

// Cluster is an expert-parallel group of identical GPUs over a tiered
// host-memory hierarchy. Experts are assigned to devices round-robin by
// flattened expert ID, matching the paper's §5 hash placement. Each GPU
// owns a PCIe host link (DRAM -> HBM); tiers below DRAM feed the tier
// above them over one host-level staging link each, shared by every GPU.
type Cluster struct {
	Spec  GPUSpec
	N     int
	cfg   moe.Config
	links []*Link

	hier    Hierarchy
	staging []*Link // staging[j] feeds host tier j from host tier j+1
	// stageScratch and drainScratch back the slices AdvanceStagingTo and
	// AdvanceTo return, reused across drains; each is valid only until the
	// next call of its method.
	stageScratch []StageTransfer
	drainScratch []Transfer
}

// NewCluster builds an N-GPU cluster for the given model over the
// degenerate two-tier hierarchy (unbounded DRAM, no staging links) — the
// seed's memory model.
func NewCluster(spec GPUSpec, n int, cfg moe.Config) *Cluster {
	return NewTieredCluster(spec, n, cfg, Hierarchy{})
}

// NewTieredCluster builds an N-GPU cluster over an explicit host-memory
// hierarchy. A zero-value hierarchy normalizes to the degenerate two-tier
// configuration.
func NewTieredCluster(spec GPUSpec, n int, cfg moe.Config, h Hierarchy) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("memsim: invalid GPU count %d", n))
	}
	h = h.withDefaults()
	if err := h.Validate(); err != nil {
		panic("memsim: " + err.Error())
	}
	c := &Cluster{Spec: spec, N: n, cfg: cfg, hier: h}
	for i := 0; i < n; i++ {
		c.links = append(c.links, NewLink(spec, cfg.ExpertBytes()))
	}
	for j := 1; j < len(h.Host); j++ {
		t := h.Host[j]
		c.staging = append(c.staging, NewRawLink(t.GBps, t.LatencyMS, cfg.ExpertBytes()))
	}
	return c
}

// Hierarchy returns the cluster's normalized host-memory hierarchy.
func (c *Cluster) Hierarchy() Hierarchy { return c.hier }

// GPUFor returns the device index owning an expert.
func (c *Cluster) GPUFor(ref moe.ExpertRef) int { return c.cfg.OwnerGPU(ref, c.N) }

// Link returns device i's host link.
func (c *Cluster) Link(i int) *Link { return c.links[i] }

// Prefetch enqueues an asynchronous copy on the owning device's link.
func (c *Cluster) Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool {
	return c.links[c.GPUFor(ref)].Prefetch(ref, priority, issueTime)
}

// Tracked reports whether ref has a queued or in-flight transfer.
func (c *Cluster) Tracked(ref moe.ExpertRef) bool {
	return c.links[c.GPUFor(ref)].Tracked(ref)
}

// OnDemand performs a blocking load of ref, returning its availability time.
func (c *Cluster) OnDemand(ref moe.ExpertRef, now float64) float64 {
	return c.links[c.GPUFor(ref)].OnDemand(ref, now)
}

// AdvanceTo advances every link to now and returns all completed
// transfers. The returned slice aliases an internal scratch buffer valid
// only until the next AdvanceTo call.
func (c *Cluster) AdvanceTo(now float64) []Transfer {
	c.drainScratch = c.drainScratch[:0]
	for _, l := range c.links {
		c.drainScratch = append(c.drainScratch, l.AdvanceTo(now)...)
	}
	return c.drainScratch
}

// SyncLoad performs blocking loads of all refs, parallelized across device
// links (each expert loads on its owner), and returns the time all are
// available. Used by synchronous policies (DeepSpeed full-layer fetching,
// Mixtral-Offloading's blocking speculative prefetch).
func (c *Cluster) SyncLoad(refs []moe.ExpertRef, now float64) float64 {
	end := now
	for _, ref := range refs {
		if t := c.OnDemand(ref, now); t > end {
			end = t
		}
	}
	return end
}

// Stats aggregates link statistics across devices.
func (c *Cluster) Stats() LinkStats {
	var s LinkStats
	for _, l := range c.links {
		ls := l.Stats()
		s.Prefetches += ls.Prefetches
		s.OnDemands += ls.OnDemands
		s.BusyMS += ls.BusyMS
	}
	return s
}

// QueueLen returns the total pending transfers across links.
func (c *Cluster) QueueLen() int {
	n := 0
	for _, l := range c.links {
		n += l.QueueLen()
	}
	return n
}

// ScalePCIe applies a bandwidth scale to every per-GPU host link (PCIe
// brownout; 1 restores nominal).
func (c *Cluster) ScalePCIe(f float64) {
	for _, l := range c.links {
		l.SetBandwidthScale(f)
	}
}

// ScaleStaging applies a bandwidth scale to every staging link below
// DRAM (NVMe brownout); a no-op under the degenerate two-tier hierarchy,
// which has no staging links to degrade.
func (c *Cluster) ScaleStaging(f float64) {
	for _, l := range c.staging {
		l.SetBandwidthScale(f)
	}
}

// StallPCIe freezes every per-GPU host link until untilMS.
func (c *Cluster) StallPCIe(untilMS float64) {
	for _, l := range c.links {
		l.Stall(untilMS)
	}
}

// StallStaging freezes every staging link until untilMS.
func (c *Cluster) StallStaging(untilMS float64) {
	for _, l := range c.staging {
		l.Stall(untilMS)
	}
}

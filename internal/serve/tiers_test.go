package serve

import (
	"math"
	"testing"

	"finemoe/internal/baselines"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
)

// tieredEngine builds a one-GPU engine over a three-tier hierarchy with
// DRAM bounded at dramExperts.
func tieredEngine(t *testing.T, dramExperts int) *Engine {
	t.Helper()
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 11)
	return New(Options{
		Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
		CacheBytes: 4 * cfg.ExpertBytes(),
		Policy:     baselines.NewNoOffload(),
		Memory:     memsim.ThreeTier(int64(dramExperts) * cfg.ExpertBytes()),
	})
}

// coldRef returns an expert outside the warm-filled DRAM set of a
// dramExperts-sized tier (the warm fill stripes expert-major).
func coldRef(cfg moe.Config) moe.ExpertRef {
	return moe.ExpertRef{Layer: cfg.Layers - 1, Expert: cfg.RoutedExperts - 1}
}

func TestTieredEngineWarmStart(t *testing.T) {
	e := tieredEngine(t, 3)
	if got := e.MemoryPressure(); got != 0 {
		t.Fatalf("pressure %v before any fetch, want 0 (no spill observed yet)", got)
	}
	// Warm fill stripes expert-major: expert 0 of layers 0..2.
	for l := 0; l < 3; l++ {
		if got := e.Tier(moe.ExpertRef{Layer: l, Expert: 0}); got != 1 {
			t.Fatalf("warm expert layer %d at tier %d, want 1 (DRAM)", l, got)
		}
	}
	if got := e.Tier(coldRef(e.cfg)); got != 2 {
		t.Fatalf("cold expert at tier %d, want 2 (NVMe)", got)
	}
}

// TestTieredFetchOnDemandRoutes verifies an NVMe-resident expert pays
// both the staging hop and the PCIe upload, landing in DRAM on the way,
// while a DRAM-resident expert pays only the upload.
func TestTieredFetchOnDemandRoutes(t *testing.T) {
	e := tieredEngine(t, 3)
	bytes := e.cfg.ExpertBytes()
	pcie := e.opts.GPU.TransferLatencyMS + float64(bytes)/(e.opts.GPU.PCIeGBps*1e6)
	stage := memsim.DefaultNVMeLatencyMS + float64(bytes)/(memsim.DefaultNVMeGBps*1e6)

	warm := moe.ExpertRef{Layer: 0, Expert: 0}
	if end := e.fetchOnDemand(warm, 0); math.Abs(end-pcie) > 1e-9 {
		t.Fatalf("DRAM-resident fetch end %v, want %v", end, pcie)
	}

	cold := coldRef(e.cfg)
	end := e.fetchOnDemand(cold, 100)
	if want := 100 + stage + pcie; math.Abs(end-want) > 1e-9 {
		t.Fatalf("NVMe-resident fetch end %v, want %v", end, want)
	}
	// The staged copy landed in DRAM (evicting a warm expert), and after
	// draining the upload the expert is GPU-resident.
	if got := e.hostLevel(cold); got != 0 {
		t.Fatalf("staged expert at host level %d, want 0 (DRAM)", got)
	}
	e.drain(end)
	if !e.caches.Contains(cold) {
		t.Fatal("fetched expert not GPU-resident after drain")
	}
	if got := e.Tier(cold); got != 0 {
		t.Fatalf("fetched expert at tier %d, want 0", got)
	}
}

// TestTieredPrefetchChains verifies an asynchronous prefetch of an
// NVMe-resident expert stages into DRAM first and chains the PCIe
// upload on completion.
func TestTieredPrefetchChains(t *testing.T) {
	e := tieredEngine(t, 3)
	cold := coldRef(e.cfg)
	if !e.Prefetch(cold, 1.0, 0) {
		t.Fatal("staging prefetch refused")
	}
	if !e.Tracked(cold) {
		t.Fatal("staging prefetch not tracked")
	}
	if e.Prefetch(cold, 2.0, 0) {
		t.Fatal("duplicate prefetch accepted mid-chain")
	}
	// Drain far enough for the full chain: staging lands in DRAM, the
	// chained PCIe upload completes, the expert becomes GPU-resident.
	e.drain(1e6)
	if !e.caches.Contains(cold) {
		t.Fatal("prefetch chain did not reach the GPU")
	}
	if len(e.pendingUp) != 0 {
		t.Fatalf("pendingUp not drained: %v", e.pendingUp)
	}
}

// TestDemoteInFlightTracked pins the in-flight demotion contract: a
// policy demoting a DRAM expert whose PCIe upload is already in flight
// drops the DRAM copy, but the transfer (a snapshot of the weights)
// still completes and the expert becomes GPU-resident.
func TestDemoteInFlightTracked(t *testing.T) {
	e := tieredEngine(t, 3)
	warm := moe.ExpertRef{Layer: 0, Expert: 0}
	if !e.Prefetch(warm, 1.0, 0) {
		t.Fatal("prefetch refused")
	}
	if !e.Tracked(warm) {
		t.Fatal("upload not tracked")
	}
	if !e.Demote(warm, e.Now()) {
		t.Fatal("demotion of DRAM-resident expert refused")
	}
	if got := e.Tier(warm); got != 2 {
		t.Fatalf("demoted expert at tier %d, want 2 (backing store)", got)
	}
	e.drain(1e6)
	if !e.caches.Contains(warm) {
		t.Fatal("in-flight upload did not survive the demotion")
	}
}

// TestPromoteSingleHop verifies Promote moves an expert exactly one
// tier upward: NVMe -> DRAM without chaining a GPU upload.
func TestPromoteSingleHop(t *testing.T) {
	e := tieredEngine(t, 3)
	cold := coldRef(e.cfg)
	if !e.Promote(cold, 1.0, 0) {
		t.Fatal("promote refused")
	}
	e.drain(1e6)
	if got := e.Tier(cold); got != 1 {
		t.Fatalf("promoted expert at tier %d, want 1 (DRAM, no GPU upload)", got)
	}
	// Promoting a DRAM-resident expert is the final hop to the GPU.
	if !e.Promote(cold, 1.0, 1e6) {
		t.Fatal("DRAM promote refused")
	}
	e.drain(2e6)
	if got := e.Tier(cold); got != 0 {
		t.Fatalf("expert at tier %d after second promote, want 0", got)
	}
}

// TestDemoteFromGPUCascades verifies Demote on a GPU-resident expert
// drops it into DRAM, and demotions cascade drops out of a full DRAM.
func TestDemoteFromGPUCascades(t *testing.T) {
	e := tieredEngine(t, 3)
	warm := moe.ExpertRef{Layer: 0, Expert: 0}
	end := e.fetchOnDemand(warm, 0)
	e.drain(end)
	if e.Tier(warm) != 0 {
		t.Fatal("setup: expert not GPU-resident")
	}
	// A pinned GPU copy is in use by the executing layer: never dropped.
	e.caches.Pin(warm)
	if e.Demote(warm, e.Now()) {
		t.Fatal("demotion dropped a pinned GPU copy")
	}
	e.caches.Unpin(warm)
	if !e.Demote(warm, e.Now()) {
		t.Fatal("GPU demotion refused")
	}
	if got := e.Tier(warm); got != 1 {
		t.Fatalf("demoted expert at tier %d, want 1 (DRAM)", got)
	}
	// Bottom-tier experts cannot demote further.
	if e.Demote(coldRef(e.cfg), e.Now()) {
		t.Fatal("backing-store expert accepted a demotion")
	}
}

// TestZeroCapacityDRAMEngine pins the zero-capacity DRAM tier: every
// fetch re-stages from NVMe (nothing sticks in DRAM) yet still lands on
// the GPU.
func TestZeroCapacityDRAMEngine(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 12)
	// One byte of DRAM: capacity rounds down to zero experts.
	e := New(Options{
		Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
		CacheBytes: 4 * cfg.ExpertBytes(),
		Policy:     baselines.NewNoOffload(),
		Memory:     memsim.ThreeTier(1),
	})
	if got := e.MemoryPressure(); got != 0 {
		t.Fatalf("zero-capacity DRAM pressure %v, want 0", got)
	}
	ref := moe.ExpertRef{Layer: 1, Expert: 1}
	end := e.fetchOnDemand(ref, 0)
	e.drain(end)
	if !e.caches.Contains(ref) {
		t.Fatal("expert did not reach the GPU through a zero-capacity DRAM")
	}
	if got := e.host[0].Len(); got != 0 {
		t.Fatalf("zero-capacity DRAM holds %d experts", got)
	}
	// Dropping it from the GPU sends it all the way down: DRAM cannot
	// hold the demotion.
	e.Demote(ref, e.Now())
	if got := e.Tier(ref); got != 2 {
		t.Fatalf("expert at tier %d after demotion through zero-capacity DRAM, want 2", got)
	}
	// The next fetch pays the full staging route again.
	stage := memsim.DefaultNVMeLatencyMS + float64(cfg.ExpertBytes())/(memsim.DefaultNVMeGBps*1e6)
	if got := e.fetchOnDemand(ref, 1e5); got < 1e5+stage {
		t.Fatalf("re-fetch end %v did not pay the staging hop", got)
	}
}

// TestMemoryPressureTracksSpill verifies the thrash signal rises while
// fetches spill below DRAM and decays back once the working set fits —
// the property the memory-aware router depends on (plain occupancy could
// not provide it: a warm-filled bounded tier is 100% occupied all run).
func TestMemoryPressureTracksSpill(t *testing.T) {
	e := tieredEngine(t, 3)
	// Spill phase: fetch distinct NVMe-resident experts.
	now := 0.0
	for j := 1; j < e.cfg.RoutedExperts; j++ {
		for l := 0; l < e.cfg.Layers; l++ {
			now = e.fetchOnDemand(moe.ExpertRef{Layer: l, Expert: j}, now)
		}
	}
	high := e.MemoryPressure()
	if high <= 0.2 {
		t.Fatalf("pressure %v after sustained spill, want > 0.2", high)
	}
	// Fit phase: repeated DRAM hits decay the signal. The drain churns
	// DRAM (GPU evictions demote into it), so pick whichever expert is
	// DRAM-resident afterwards.
	e.drain(now)
	var warm moe.ExpertRef
	found := false
	for l := 0; l < e.cfg.Layers && !found; l++ {
		for j := 0; j < e.cfg.RoutedExperts && !found; j++ {
			if r := (moe.ExpertRef{Layer: l, Expert: j}); e.hostLevel(r) == 0 {
				warm, found = r, true
			}
		}
	}
	if !found {
		t.Fatal("setup: no DRAM-resident expert after fetches")
	}
	for i := 0; i < 64; i++ {
		e.noteMemFetch(e.hostLevel(warm))
	}
	if low := e.MemoryPressure(); low >= high/2 {
		t.Fatalf("pressure %v did not decay from %v under DRAM hits", low, high)
	}
}

// TestTierStatsShape verifies the per-tier snapshot lines up with the
// hierarchy and reports staging activity on the DRAM entry.
func TestTierStatsShape(t *testing.T) {
	e := tieredEngine(t, 3)
	cold := coldRef(e.cfg)
	end := e.fetchOnDemand(cold, 0)
	e.drain(end)
	ts := e.TierStats()
	if len(ts) != 3 {
		t.Fatalf("tier stats depth %d, want 3", len(ts))
	}
	if ts[0].Name != "HBM" || ts[1].Name != "DRAM" || ts[2].Name != "NVMe" {
		t.Fatalf("tier names %v", []string{ts[0].Name, ts[1].Name, ts[2].Name})
	}
	if ts[1].Link.OnDemands != 1 {
		t.Fatalf("DRAM feeding link on-demands %d, want 1", ts[1].Link.OnDemands)
	}
	if ts[0].Link.OnDemands != 1 {
		t.Fatalf("PCIe on-demands %d, want 1", ts[0].Link.OnDemands)
	}
	if ts[2].CapacityExperts != -1 || ts[2].ResidentExperts != e.cfg.Layers*e.cfg.RoutedExperts {
		t.Fatalf("backing tier stats %+v", ts[2])
	}
	if ts[1].Promotions != 1 {
		t.Fatalf("DRAM promotions %d, want 1 (the staged copy)", ts[1].Promotions)
	}
}

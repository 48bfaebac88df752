package workload

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"finemoe/internal/rng"
)

// testProcesses enumerates every arrival process at a common 4 req/s mean
// rate, with the rate each one should empirically deliver (flash-crowd is
// non-stationary, so its expected rate is bracketed separately).
func testProcesses() []ArrivalProcess {
	return []ArrivalProcess{
		Poisson{RatePerSec: 4},
		BurstyMMPP(4),
		DiurnalSwing(4),
		FlashSpike(4),
	}
}

// times draws the first n arrival times of p's timeline for seed.
func times(p ArrivalProcess, n int, seed uint64) []float64 {
	s := p.Stream(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// TestArrivalTimesNonDecreasing: every process's timeline is
// non-decreasing and strictly positive, across seeds.
func TestArrivalTimesNonDecreasing(t *testing.T) {
	for _, ap := range testProcesses() {
		f := func(seed uint64) bool {
			prev := 0.0
			for _, x := range times(ap, 200, seed) {
				if x <= 0 || x < prev || math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
				prev = x
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", ap.Name(), err)
		}
	}
}

// empiricalRate measures arrivals per second over the generated span.
func empiricalRate(times []float64) float64 {
	return float64(len(times)) / (times[len(times)-1] / 1000)
}

// TestArrivalMeanRate: the stationary processes deliver their configured
// long-run mean rate within sampling tolerance.
func TestArrivalMeanRate(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		ap   ArrivalProcess
		want float64
	}{
		{Poisson{RatePerSec: 4}, 4},
		{BurstyMMPP(4), BurstyMMPP(4).MeanRate()},
		{DiurnalSwing(4), DiurnalSwing(4).MeanRate()},
	} {
		got := empiricalRate(times(tc.ap, n, 17))
		if math.Abs(got-tc.want)/tc.want > 0.1 {
			t.Errorf("%s: empirical rate %.2f, want ~%.2f", tc.ap.Name(), got, tc.want)
		}
	}
	// The MMPP preset's stationary rate must equal the requested rate by
	// construction.
	if r := BurstyMMPP(4).MeanRate(); math.Abs(r-4) > 1e-9 {
		t.Errorf("BurstyMMPP(4).MeanRate() = %v, want 4", r)
	}
}

// TestFlashCrowdSpike: flash-crowd is non-stationary — the decay window
// right after onset must carry far more traffic than a background window
// of the same length, while the long-run rate relaxes back toward the
// background rate. Counts are averaged over seeds to tame Poisson noise.
func TestFlashCrowdSpike(t *testing.T) {
	f := FlashSpike(4)
	var spike, background float64
	const seeds = 10
	for seed := uint64(0); seed < seeds; seed++ {
		for _, x := range times(f, 2000, seed) {
			tS := x / 1000
			switch {
			case tS >= f.SpikeAtS && tS < f.SpikeAtS+f.DecayS:
				spike++
			case tS >= f.SpikeAtS+10*f.DecayS && tS < f.SpikeAtS+11*f.DecayS:
				background++
			}
		}
	}
	spike /= seeds
	background /= seeds
	// Expected spike-window count: base·decay·(1+(mult−1)(1−1/e)) ≈ 16.6
	// vs ≈ 4 in a background window.
	if spike < 2*background {
		t.Errorf("spike window carries %.1f arrivals vs background %.1f, want ≥ 2x", spike, background)
	}
	expected := f.BaseRatePerSec * f.DecayS
	if math.Abs(background-expected)/expected > 0.5 {
		t.Errorf("background window %.1f arrivals, want ~%.1f", background, expected)
	}
	// Long-run: the spike's extra mass washes out, so the empirical rate
	// relaxes to the background rate.
	got := empiricalRate(times(f, 5000, 21))
	if math.Abs(got-f.BaseRatePerSec)/f.BaseRatePerSec > 0.15 {
		t.Errorf("long-run flash-crowd rate %.2f, want ~%.2f", got, f.BaseRatePerSec)
	}
}

// TestArrivalDeterminism: a fixed seed reproduces the timeline
// byte-identically; a different seed does not.
func TestArrivalDeterminism(t *testing.T) {
	for _, ap := range testProcesses() {
		a := times(ap, 500, 42)
		b := times(ap, 500, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: times diverge at %d for equal seeds", ap.Name(), i)
			}
		}
		c := times(ap, 500, 43)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical timelines", ap.Name())
		}
	}
}

// TestThinLongHorizonAccuracy: thinStream's compensated clock stays
// within a rounding of the exact (200-bit) prefix sum of its gap stream at
// a million-candidate horizon, and is never worse than naive float64
// accumulation. A flat rate function makes every candidate an arrival, so
// arrival i is exactly prefix sum i and the reference can replay the same
// rng draws (gap, then acceptance) in lock step.
func TestThinLongHorizonAccuracy(t *testing.T) {
	const n = 1_000_000
	const rateMax = 8.0
	s := &thinStream{r: rng.Seeded(99), rateMax: rateMax, rate: func(float64) float64 { return rateMax }}

	r := rng.New(99)
	exact := new(big.Float).SetPrec(200)
	gap := new(big.Float).SetPrec(200)
	var naive float64
	for i := 0; i < n; i++ {
		got := s.Next() / 1000
		g := r.Exp(rateMax)
		r.Float64() // the stream's acceptance draw
		naive += g
		exact.Add(exact, gap.SetFloat64(g))
		if i == n/2 || i == n-1 {
			ref, _ := exact.Float64()
			kahanErr := math.Abs(got - ref)
			naiveErr := math.Abs(naive - ref)
			if kahanErr > naiveErr {
				t.Errorf("at %d: compensated error %.3g exceeds naive %.3g", i, kahanErr, naiveErr)
			}
			// Within a few ULPs of the exact sum, horizon-independent.
			if bound := 4 * (math.Nextafter(ref, math.Inf(1)) - ref); kahanErr > bound {
				t.Errorf("at %d: compensated clock off by %.3g (> %.3g)", i, kahanErr, bound)
			}
		}
	}
}

// TestThinLongHorizonDeterminism: the thinned processes reproduce a
// 200k-arrival timeline byte-identically — the long-horizon variant of
// TestArrivalDeterminism, guarding the 1M-scale cluster benches.
func TestThinLongHorizonDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon determinism sweep")
	}
	for _, ap := range []ArrivalProcess{DiurnalSwing(4), FlashSpike(4)} {
		a := times(ap, 200_000, 7)
		b := times(ap, 200_000, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: long-horizon timelines diverge at %d", ap.Name(), i)
			}
		}
		if a[len(a)-1] <= a[0] {
			t.Fatalf("%s: degenerate long-horizon timeline", ap.Name())
		}
	}
}

// TestMMPPBurstiness: the defining property — MMPP counts are
// overdispersed (index of dispersion > 1) and clearly burstier than a
// Poisson process of the same mean rate.
func TestMMPPBurstiness(t *testing.T) {
	const n = 20000
	m := BurstyMMPP(4)
	// Window ≈ 10 mean inter-arrival gaps, well inside the state holding
	// times so bursts show up as count variance.
	window := 10.0 / 4 * 1000
	mmppD := IndexOfDispersion(times(m, n, 5), window)
	poisD := IndexOfDispersion(times(Poisson{RatePerSec: 4}, n, 5), window)
	if mmppD <= 1 {
		t.Errorf("MMPP index of dispersion %.2f, want > 1", mmppD)
	}
	if mmppD <= poisD*1.5 {
		t.Errorf("MMPP dispersion %.2f not clearly above Poisson's %.2f", mmppD, poisD)
	}
	if math.Abs(poisD-1) > 0.3 {
		t.Errorf("Poisson index of dispersion %.2f, want ≈ 1", poisD)
	}
}

// TestAzureTraceMatchesPoissonProcess: the AzureTrace refactor onto
// ArrivalProcess preserved the arrival stream byte for byte (the
// determinism contract every downstream golden depends on).
func TestAzureTraceMatchesPoissonProcess(t *testing.T) {
	d := LMSYSChat1M()
	trace := AzureTrace(d, 8, TraceConfig{RatePerSec: 2.91, N: 64, Seed: 9})
	viaOnline := OnlineTrace(d, 8, OnlineOptions{
		Arrivals: Poisson{RatePerSec: 2.91}, N: 64, Seed: 9,
	})
	for i := range trace {
		if trace[i].ArrivalMS != viaOnline[i].ArrivalMS || trace[i].ID != viaOnline[i].ID {
			t.Fatalf("AzureTrace and OnlineTrace(Poisson) diverge at %d", i)
		}
	}
}

// TestArrivalByName: every flag name resolves, unknown names and rates
// that are not positive and finite error.
func TestArrivalByName(t *testing.T) {
	for _, name := range []string{"poisson", "mmpp", "bursty", "diurnal", "flash", "flash-crowd", ""} {
		ap, err := ArrivalByName(name, 4)
		if err != nil || ap == nil {
			t.Errorf("ArrivalByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ArrivalByName("nope", 4); err == nil {
		t.Error("unknown arrival name did not error")
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ArrivalByName("poisson", rate); err == nil {
			t.Errorf("arrival rate %v did not error", rate)
		}
	}
}

// TestArrivalValidation: invalid configurations, NaN fields included,
// panic with the package's message rather than emit broken timelines.
func TestArrivalValidation(t *testing.T) {
	nan := math.NaN()
	for i, bad := range []ArrivalProcess{
		Poisson{},
		Poisson{RatePerSec: nan},
		MMPP{LowRate: 1, HighRate: 2, MeanLowS: 1},
		MMPP{LowRate: 1, HighRate: nan, MeanLowS: 1, MeanHighS: 1},
		Diurnal{BaseRatePerSec: 1, Amplitude: 1.5, PeriodS: 10},
		Diurnal{BaseRatePerSec: 1, Amplitude: nan, PeriodS: 10},
		FlashCrowd{BaseRatePerSec: 1, SpikeMult: 0.5, DecayS: 1},
		FlashCrowd{BaseRatePerSec: 1, SpikeMult: 6, SpikeAtS: nan, DecayS: 1},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "workload: ") {
					t.Errorf("case %d (%+v): panic %q, want the package's message", i, bad, msg)
				}
			}()
			bad.Stream(0)
		}()
	}
}

// TestIndexOfDispersionEdges: degenerate inputs return 0 instead of NaN.
func TestIndexOfDispersionEdges(t *testing.T) {
	if d := IndexOfDispersion(nil, 100); d != 0 {
		t.Errorf("nil arrivals: %v", d)
	}
	if d := IndexOfDispersion([]float64{50}, 100); d != 0 {
		t.Errorf("single short arrival: %v", d)
	}
	if d := IndexOfDispersion([]float64{50, 60}, 0); d != 0 {
		t.Errorf("zero window: %v", d)
	}
}

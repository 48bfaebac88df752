// Arrival processes: the pluggable traffic shapes online traces are built
// from. The paper's evaluation drives everything with a constant-rate
// Poisson trace (§6.3); the scenario gauntlet adds the shapes production
// fleets actually see — two-state bursty traffic (MMPP), diurnal swings,
// and flash crowds — behind one interface so every trace generator,
// scenario spec, and CLI flag composes with every shape.
package workload

import (
	"fmt"
	"math"

	"finemoe/internal/rng"
)

// ArrivalProcess generates the arrival timeline of an online trace.
// Implementations must be deterministic: the same seed always yields the
// same times, and times are non-decreasing starting after 0.
type ArrivalProcess interface {
	// Name identifies the process in reports and flags.
	Name() string
	// Stream returns the process's timeline for seed, one arrival per
	// Next, from O(1) generator state.
	Stream(seed uint64) ArrivalStream
}

// ArrivalStream is an arrival timeline being generated: Next returns the
// next arrival time in milliseconds.
type ArrivalStream interface {
	Next() float64
}

// Poisson is the constant-rate memoryless process of the paper's Azure
// trace: exponential inter-arrival gaps at RatePerSec.
type Poisson struct {
	// RatePerSec is the mean arrival rate (paper: 2.91).
	RatePerSec float64
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return "poisson" }

// MeanRate returns the process's long-run arrival rate.
func (p Poisson) MeanRate() float64 { return p.RatePerSec }

// Stream implements ArrivalProcess.
func (p Poisson) Stream(seed uint64) ArrivalStream {
	if !(p.RatePerSec > 0) {
		panic("workload: non-positive arrival rate")
	}
	return &poissonStream{r: rng.Seeded(seed), rate: p.RatePerSec}
}

type poissonStream struct {
	r    rng.RNG
	rate float64
	t    float64 // milliseconds
}

//finemoe:hotpath
func (s *poissonStream) Next() float64 {
	s.t += s.r.Exp(s.rate) * 1000
	return s.t
}

// MMPP is a two-state Markov-modulated Poisson process: traffic alternates
// between a background state and a burst state, each holding for an
// exponential duration, with state-dependent Poisson arrivals. Its counts
// are overdispersed (index of dispersion > 1), the defining property of
// bursty serving traffic.
type MMPP struct {
	// LowRate and HighRate are the per-state arrival rates (req/s).
	LowRate, HighRate float64
	// MeanLowS and MeanHighS are the mean state holding times (seconds).
	MeanLowS, MeanHighS float64
}

// Name implements ArrivalProcess.
func (m MMPP) Name() string { return "mmpp" }

// MeanRate returns the stationary mean arrival rate: the per-state rates
// weighted by the fraction of time spent in each state.
func (m MMPP) MeanRate() float64 {
	return (m.LowRate*m.MeanLowS + m.HighRate*m.MeanHighS) / (m.MeanLowS + m.MeanHighS)
}

// Stream implements ArrivalProcess. The process starts in the low state;
// state switches and arrivals are competing exponentials, resolved by
// memorylessness.
func (m MMPP) Stream(seed uint64) ArrivalStream {
	if !(m.LowRate > 0 && m.HighRate > 0 && m.MeanLowS > 0 && m.MeanHighS > 0) {
		panic(fmt.Sprintf("workload: invalid MMPP %+v", m))
	}
	s := &mmppStream{m: m, r: rng.Seeded(seed)}
	s.holdLeft = s.r.Exp(1 / m.MeanLowS)
	return s
}

type mmppStream struct {
	m        MMPP
	r        rng.RNG
	t        float64 // seconds
	holdLeft float64
	high     bool
}

//finemoe:hotpath
func (s *mmppStream) Next() float64 {
	for {
		rate := s.m.LowRate
		if s.high {
			rate = s.m.HighRate
		}
		gap := s.r.Exp(rate)
		if gap < s.holdLeft {
			s.t += gap
			s.holdLeft -= gap
			return s.t * 1000
		}
		s.t += s.holdLeft
		s.high = !s.high
		mean := s.m.MeanLowS
		if s.high {
			mean = s.m.MeanHighS
		}
		s.holdLeft = s.r.Exp(1 / mean)
	}
}

// Diurnal is a sinusoidally rate-modulated Poisson process standing in for
// daily traffic swings: λ(t) = Base·(1 + Amplitude·sin(2πt/Period)).
// Arrivals are generated by Lewis-Shedler thinning against the peak rate.
type Diurnal struct {
	// BaseRatePerSec is the mean rate; the instantaneous rate swings
	// between Base·(1−Amplitude) and Base·(1+Amplitude).
	BaseRatePerSec float64
	// Amplitude is the relative swing, in [0, 1).
	Amplitude float64
	// PeriodS is the cycle length in seconds (a virtual "day").
	PeriodS float64
}

// Name implements ArrivalProcess.
func (d Diurnal) Name() string { return "diurnal" }

// MeanRate returns the cycle-averaged arrival rate.
func (d Diurnal) MeanRate() float64 { return d.BaseRatePerSec }

// rate is the instantaneous rate at t seconds.
func (d Diurnal) rate(tS float64) float64 {
	return d.BaseRatePerSec * (1 + d.Amplitude*math.Sin(2*math.Pi*tS/d.PeriodS))
}

// Stream implements ArrivalProcess.
func (d Diurnal) Stream(seed uint64) ArrivalStream {
	if !(d.BaseRatePerSec > 0 && d.Amplitude >= 0 && d.Amplitude < 1 && d.PeriodS > 0) {
		panic(fmt.Sprintf("workload: invalid Diurnal %+v", d))
	}
	return &thinStream{r: rng.Seeded(seed), rateMax: d.BaseRatePerSec * (1 + d.Amplitude), rate: d.rate}
}

// FlashCrowd is a step spike with exponential decay: background Poisson
// traffic until SpikeAtS, then an instantaneous jump to SpikeMult× the
// base rate relaxing back with time constant DecayS — the serverless
// cold-start nightmare scenario.
type FlashCrowd struct {
	// BaseRatePerSec is the pre-spike background rate.
	BaseRatePerSec float64
	// SpikeMult multiplies the rate at spike onset (> 1).
	SpikeMult float64
	// SpikeAtS is the onset time in seconds.
	SpikeAtS float64
	// DecayS is the exponential relaxation constant in seconds.
	DecayS float64
}

// Name implements ArrivalProcess.
func (f FlashCrowd) Name() string { return "flash-crowd" }

// rate is the instantaneous rate at t seconds.
func (f FlashCrowd) rate(tS float64) float64 {
	if tS < f.SpikeAtS {
		return f.BaseRatePerSec
	}
	return f.BaseRatePerSec * (1 + (f.SpikeMult-1)*math.Exp(-(tS-f.SpikeAtS)/f.DecayS))
}

// Stream implements ArrivalProcess.
func (f FlashCrowd) Stream(seed uint64) ArrivalStream {
	if !(f.BaseRatePerSec > 0 && f.SpikeMult > 1 && f.SpikeAtS >= 0 && f.DecayS > 0) {
		panic(fmt.Sprintf("workload: invalid FlashCrowd %+v", f))
	}
	return &thinStream{r: rng.Seeded(seed), rateMax: f.BaseRatePerSec * f.SpikeMult, rate: f.rate}
}

// thinStream generates an inhomogeneous Poisson process with
// instantaneous rate rate(tS) ≤ rateMax by thinning: candidate arrivals at
// the constant envelope rate are kept with probability rate/rateMax, one
// accepted arrival per Next.
//
// The clock is a Kahan-compensated sum of the exponential gaps. A naive
// running sum drifts by O(n·ε) over n candidates — at million-request
// horizons that is enough to flip thinning decisions near the acceptance
// boundary and shift the rate() phase every process downstream replays,
// so the accumulated time would depend on summation order rather than on
// the gap stream alone. Compensation keeps the clock within one rounding
// of the exact prefix sum regardless of horizon.
type thinStream struct {
	r       rng.RNG
	rateMax float64
	rate    func(tS float64) float64
	t, comp float64 // seconds; comp carries the low-order error term
}

func (s *thinStream) Next() float64 {
	for {
		y := s.r.Exp(s.rateMax) - s.comp
		sum := s.t + y
		s.comp = (sum - s.t) - y
		s.t = sum
		if s.r.Float64()*s.rateMax <= s.rate(s.t) {
			return s.t * 1000
		}
	}
}

// --- rate-parameterized presets ---------------------------------------------
//
// The presets give every CLI flag and scenario spec a comparable family:
// each has long-run mean rate ≈ ratePerSec, so swapping the shape changes
// the traffic's variance structure, not its volume. Holding times and
// periods are expressed in units of the mean inter-arrival gap so the
// shapes survive rate rescaling (the small test scale runs 8 req/s, the
// paper scale 2.91 req/s).

// BurstyMMPP returns a two-state MMPP with mean rate ratePerSec: a
// background state at rate/2 (holding ~6 mean gaps) and a burst state at
// 3×rate (holding ~1.5 mean gaps), i.e. 20% of time in bursts. The short
// holding times fit several burst cycles into even a few-dozen-request
// trace, so burstiness survives small-scale test traces.
func BurstyMMPP(ratePerSec float64) MMPP {
	return MMPP{
		LowRate:  ratePerSec / 2,
		HighRate: 3 * ratePerSec,
		MeanLowS: 6 / ratePerSec, MeanHighS: 1.5 / ratePerSec,
	}
}

// DiurnalSwing returns a sinusoidal process with mean rate ratePerSec, an
// 80% swing, and a "day" of ~16 mean gaps so even short traces cover more
// than one cycle.
func DiurnalSwing(ratePerSec float64) Diurnal {
	return Diurnal{BaseRatePerSec: ratePerSec, Amplitude: 0.8, PeriodS: 16 / ratePerSec}
}

// FlashSpike returns a flash crowd with background rate ratePerSec: after
// ~4 background arrivals the rate jumps 6× and decays over ~4 mean gaps.
func FlashSpike(ratePerSec float64) FlashCrowd {
	return FlashCrowd{
		BaseRatePerSec: ratePerSec,
		SpikeMult:      6,
		SpikeAtS:       4 / ratePerSec,
		DecayS:         4 / ratePerSec,
	}
}

// ArrivalByName resolves a process name (as used by -arrival flags and
// scenario specs) to a preset at the given mean rate, which must be
// positive and finite.
func ArrivalByName(name string, ratePerSec float64) (ArrivalProcess, error) {
	if !(ratePerSec > 0) || math.IsInf(ratePerSec, 1) {
		return nil, fmt.Errorf("workload: arrival rate %v req/s is not positive and finite", ratePerSec)
	}
	switch name {
	case "poisson", "":
		return Poisson{RatePerSec: ratePerSec}, nil
	case "mmpp", "bursty":
		return BurstyMMPP(ratePerSec), nil
	case "diurnal":
		return DiurnalSwing(ratePerSec), nil
	case "flash", "flash-crowd":
		return FlashSpike(ratePerSec), nil
	}
	return nil, fmt.Errorf("workload: unknown arrival process %q (poisson|mmpp|diurnal|flash)", name)
}

// IndexOfDispersion measures burstiness: the variance-to-mean ratio of
// arrival counts in fixed windows of windowMS over the trace's span. A
// homogeneous Poisson process scores ≈ 1; bursty traffic scores > 1.
// Returns 0 for traces too short to fill two windows.
func IndexOfDispersion(arrivalsMS []float64, windowMS float64) float64 {
	if len(arrivalsMS) == 0 || windowMS <= 0 {
		return 0
	}
	span := arrivalsMS[len(arrivalsMS)-1]
	nw := int(span / windowMS)
	if nw < 2 {
		return 0
	}
	counts := make([]float64, nw)
	for _, t := range arrivalsMS {
		if w := int(t / windowMS); w < nw {
			counts[w]++
		}
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(nw)
	if mean == 0 {
		return 0
	}
	var variance float64
	for _, c := range counts {
		variance += (c - mean) * (c - mean)
	}
	variance /= float64(nw)
	return variance / mean
}

// arrivalSalt namespaces arrival-time sampling within a trace's seed; it
// predates the ArrivalProcess interface, so keeping it pins AzureTrace's
// byte-exact output across the refactor.
const arrivalSalt uint64 = 0xA22E

// OnlineOptions parameterizes trace generation over any arrival process.
type OnlineOptions struct {
	// Arrivals shapes the arrival timeline.
	Arrivals ArrivalProcess
	// N is the number of requests.
	N int
	// Seed drives prompt and arrival sampling.
	Seed uint64
	// IDBase offsets request IDs (0 = the 1<<32 default), letting callers
	// concatenate traces without ID collisions.
	IDBase uint64
	// Tenant tags every request with a tenant name ("" = untagged).
	Tenant string
}

// OnlineTrace samples an online trace: dataset prompts with arrival times
// drawn from the configured process and sampled token lengths. It is
// StreamOnline collected into a slice.
func OnlineTrace(d Dataset, dim int, opt OnlineOptions) []Request {
	return collect(StreamOnline(d, dim, opt), opt.N)
}

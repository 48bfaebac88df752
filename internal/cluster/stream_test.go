package cluster

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// streamVariant is one cell family of the streaming parity matrix: a
// fleet configuration plus the same workload in materialized and
// streaming form. Every builder is a pure function so repeated builds
// are byte-comparable.
type streamVariant struct {
	name    string
	cluster func(workers int) *Cluster
	trace   func() []workload.Request
	source  func() workload.Source
}

func streamDataset(seed uint64) workload.Dataset {
	return workload.Dataset{
		Name: "stream-test", Topics: 5, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: seed,
	}
}

func streamVariants() []streamVariant {
	var out []streamVariant

	// One variant per arrival process on a plain least-loaded fleet.
	shapes := []struct {
		name string
		ap   workload.ArrivalProcess
	}{
		{"poisson", workload.Poisson{RatePerSec: 60}},
		{"mmpp", workload.BurstyMMPP(60)},
		{"diurnal", workload.DiurnalSwing(60)},
		{"flash", workload.FlashSpike(60)},
	}
	for _, sh := range shapes {
		d := streamDataset(31)
		opt := workload.OnlineOptions{Arrivals: sh.ap, N: 48, Seed: 5}
		out = append(out, streamVariant{
			name: sh.name,
			cluster: func(workers int) *Cluster {
				m := moe.NewModel(moe.Tiny(), 11)
				return New(Options{
					Engines: testEngines(m, 4),
					Router:  NewLeastLoaded(),
					Workers: workers,
				})
			},
			trace:  func() []workload.Request { return workload.OnlineTrace(d, moe.Tiny().SemDim, opt) },
			source: func() workload.Source { return workload.StreamOnline(d, moe.Tiny().SemDim, opt) },
		})
	}

	// Closed-loop multi-turn sessions: streamed openers, follow-ups
	// injected through the hook on both paths.
	sessVariant := func(name string, seed uint64, plan bool) streamVariant {
		d := streamDataset(12)
		mkSess := func() *workload.Sessions {
			return workload.NewSessions(d, moe.Tiny().SemDim,
				workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 0.02, Drift: 0.03}, seed)
		}
		return streamVariant{
			name: name,
			cluster: func(workers int) *Cluster {
				m := moe.NewModel(moe.Tiny(), 7)
				sess := mkSess()
				opts := Options{
					Engines: testEngines(m, 4),
					Router:  NewLeastLoaded(),
					FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
						return sess.FollowUp(orig, done.EndMS)
					},
					EngineFactory: func(id int) *serve.Engine { return testEngines(m, 1)[0] },
					Workers:       workers,
				}
				if plan {
					opts.FaultPlan = gauntletPlan()
					opts.Resilience = fullResilience()
				}
				return New(opts)
			},
			trace: func() []workload.Request {
				return mkSess().Initial(workload.BurstyMMPP(60), 24, 0)
			},
			source: func() workload.Source {
				return mkSess().StreamInitial(workload.BurstyMMPP(60), 24, 0)
			},
		}
	}
	out = append(out, sessVariant("sessions", 3, false))

	// Multi-tenant mix, including the adversarial tenant.
	tenants := []workload.TenantSpec{
		{Name: "a", Dataset: streamDataset(21), Arrivals: workload.Poisson{RatePerSec: 40}, N: 20},
		{Name: "b", Dataset: streamDataset(22), Arrivals: workload.BurstyMMPP(50), N: 16},
		workload.AdversarialTenant("abuser", 20, 12, 9),
	}
	out = append(out, streamVariant{
		name: "tenants",
		cluster: func(workers int) *Cluster {
			m := moe.NewModel(moe.Tiny(), 13)
			return New(Options{
				Engines:   testEngines(m, 4),
				Admission: NewTokenBucket(24, 45),
				Router:    NewRoundRobin(),
				Workers:   workers,
			})
		},
		trace: func() []workload.Request {
			return workload.MultiTenantTrace(moe.Tiny().SemDim, 17, tenants)
		},
		source: func() workload.Source {
			return workload.StreamMultiTenant(moe.Tiny().SemDim, 17, tenants)
		},
	})

	// Fault plan + full resilience over a streamed trace.
	out = append(out, streamVariant{
		name: "faults",
		cluster: func(workers int) *Cluster {
			c, _ := faultCluster(workers, fullResilience())
			return c
		},
		trace: func() []workload.Request {
			_, trace := faultCluster(0, fullResilience())
			return trace
		},
		source: func() workload.Source {
			_, trace := faultCluster(0, fullResilience())
			return workload.NewSliceSource(trace)
		},
	})

	// Everything at once: sessions + fault plan + resilience + growth.
	out = append(out, sessVariant("combo", 19, true))

	// A mixed-model fleet: engines of two differently seeded models, so
	// a trace simulated with the wrong model would change the bytes. The
	// gate-trace pipeline stays off and every engine traces at admission.
	{
		d := streamDataset(41)
		opt := workload.OnlineOptions{Arrivals: workload.BurstyMMPP(60), N: 48, Seed: 6}
		out = append(out, streamVariant{
			name: "mixed-model",
			cluster: func(workers int) *Cluster {
				a, b := moe.NewModel(moe.Tiny(), 11), moe.NewModel(moe.Tiny(), 12)
				return New(Options{
					Engines: append(testEngines(a, 2), testEngines(b, 2)...),
					Router:  NewLeastLoaded(),
					Workers: workers,
				})
			},
			trace:  func() []workload.Request { return workload.OnlineTrace(d, moe.Tiny().SemDim, opt) },
			source: func() workload.Source { return workload.StreamOnline(d, moe.Tiny().SemDim, opt) },
		})
	}

	return out
}

// runStreamBytes runs one cell and returns the JSON-encoded result.
func runStreamBytes(t *testing.T, c *Cluster, run func(c *Cluster) *Result) []byte {
	t.Helper()
	res := run(c)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if res.Served == 0 {
		t.Fatal("degenerate cell served nothing")
	}
	return b
}

// TestRunStreamByteParity is the streaming tentpole's contract: for every
// workload shape (all four arrival processes, closed-loop sessions,
// multi-tenant mixes, fault plans with resilience, the combination, and
// a mixed-model fleet) and every worker count in {0, 1, 2, 4}, RunStream
// over the generator source produces a ClusterResult byte-identical to
// RunTrace over the materialized trace on the serial loop. The reference
// run is made under GOMAXPROCS(1), where the gate-trace pipeline is off,
// so with -cpu above 1 every other run checks the pipeline against
// tracing at admission.
func TestRunStreamByteParity(t *testing.T) {
	for _, v := range streamVariants() {
		t.Run(v.name, func(t *testing.T) {
			ref := func() []byte {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				return runStreamBytes(t, v.cluster(0), func(c *Cluster) *Result {
					return c.RunTrace(v.trace())
				})
			}()
			serial := runStreamBytes(t, v.cluster(0), func(c *Cluster) *Result {
				return c.RunTrace(v.trace())
			})
			if string(serial) != string(ref) {
				t.Fatalf("materialized serial run at GOMAXPROCS=%d diverges from GOMAXPROCS=1 (%d vs %d bytes)",
					runtime.GOMAXPROCS(0), len(serial), len(ref))
			}
			for _, w := range []int{0, 1, 2, 4} {
				got := runStreamBytes(t, v.cluster(w), func(c *Cluster) *Result {
					return c.RunStream(v.source())
				})
				if string(got) != string(ref) {
					t.Fatalf("workers=%d: streaming run diverges from materialized serial run (%d vs %d bytes)",
						w, len(got), len(ref))
				}
			}
		})
	}
}

// TestTracePipelineEngages pins when the gate-trace pipeline runs: on a
// multi-CPU runtime over a one-model fleet it hands traces to engines
// with empty queues only, and on one CPU or a mixed-model fleet it hands
// off nothing.
func TestTracePipelineEngages(t *testing.T) {
	src := func() workload.Source {
		return workload.StreamOnline(streamDataset(31), moe.Tiny().SemDim,
			workload.OnlineOptions{Arrivals: workload.BurstyMMPP(600), N: 200, Seed: 5})
	}
	run := func(procs int, mixed bool) (handOffs, served int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		a, b := moe.NewModel(moe.Tiny(), 11), moe.NewModel(moe.Tiny(), 11)
		if !mixed {
			b = a
		}
		c := New(Options{Engines: append(testEngines(a, 2), testEngines(b, 2)...), Router: NewLeastLoaded()})
		res := c.RunStream(src())
		if c.ahead != nil {
			t.Fatal("RunStream returned with its pipeline still attached")
		}
		return c.handOffs, res.Served
	}
	// At this load some arrivals find their engine's queue non-empty;
	// their traces must be recycled, not handed off.
	if h, n := run(2, false); h == 0 || h >= n {
		t.Errorf("GOMAXPROCS=2, one model: %d of %d traces handed off, want some but not all", h, n)
	}
	if h, _ := run(1, false); h != 0 {
		t.Errorf("GOMAXPROCS=1: %d traces handed off, want the pipeline off", h)
	}
	if h, _ := run(2, true); h != 0 {
		t.Errorf("mixed-model fleet: %d traces handed off, want the pipeline off", h)
	}
}

// panicSource yields its requests, then panics.
type panicSource struct{ reqs []workload.Request }

func (s *panicSource) Next() (workload.Request, bool) {
	if len(s.reqs) == 0 {
		panic("source failed")
	}
	q := s.reqs[0]
	s.reqs = s.reqs[1:]
	return q, true
}

// TestTracePipelinePanicsOnCaller: with the pipeline on, a panic in
// Source.Next and a request whose gate trace panics both surface on the
// goroutine that called RunStream, as they do with the pipeline off.
func TestTracePipelinePanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := moe.NewModel(moe.Tiny(), 11)
	reqs := workload.OnlineTrace(streamDataset(31), m.Cfg.SemDim,
		workload.OnlineOptions{Arrivals: workload.Poisson{RatePerSec: 60}, N: 20, Seed: 5})
	recovered := func(src workload.Source) (v any) {
		defer func() { v = recover() }()
		New(Options{Engines: testEngines(m, 2)}).RunStream(src)
		return nil
	}
	if v := recovered(&panicSource{reqs: reqs}); v != "source failed" {
		t.Errorf("Source.Next panic: recovered %v", v)
	}
	bad := append([]workload.Request(nil), reqs...)
	bad[12].Embedding = bad[12].Embedding[:3]
	if v, ok := recovered(workload.NewSliceSource(bad)).(string); !ok || !strings.Contains(v, "embedding dim") {
		t.Errorf("invalid request: recovered %v", v)
	}
}

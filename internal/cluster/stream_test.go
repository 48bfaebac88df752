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
	cluster func() *Cluster
	trace   func() []workload.Request
	source  func() workload.Source
	// queues marks a fleet whose follow-ups wait in engine queues, so
	// with the pipeline on some admissions take jobs from its admission
	// feed.
	queues bool
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
			cluster: func() *Cluster {
				m := moe.NewModel(moe.Tiny(), 11)
				return New(Options{
					Engines: testEngines(m, 4),
					Router:  NewLeastLoaded(),
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
			cluster: func() *Cluster {
				m := moe.NewModel(moe.Tiny(), 7)
				sess := mkSess()
				opts := Options{
					Engines: testEngines(m, 4),
					Router:  NewLeastLoaded(),
					FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
						return sess.FollowUp(orig, done.EndMS)
					},
					EngineFactory: func(id int) *serve.Engine { return testEngines(m, 1)[0] },
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
			queues: true,
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
		cluster: func() *Cluster {
			m := moe.NewModel(moe.Tiny(), 13)
			return New(Options{
				Engines:   testEngines(m, 4),
				Admission: NewTokenBucket(24, 45),
				Router:    NewRoundRobin(),
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
		cluster: func() *Cluster {
			c, _ := faultCluster(fullResilience())
			return c
		},
		trace: func() []workload.Request {
			_, trace := faultCluster(fullResilience())
			return trace
		},
		source: func() workload.Source {
			_, trace := faultCluster(fullResilience())
			return workload.NewSliceSource(trace)
		},
	})

	// Everything at once: sessions + fault plan + resilience + growth.
	out = append(out, sessVariant("combo", 19, true))

	// A queue-pressure autoscaled fleet that grows one instance under
	// load and retires one as it drains.
	out = append(out, streamVariant{
		name: "autoscale",
		cluster: func() *Cluster {
			m := moe.NewModel(moe.Tiny(), 13)
			return New(Options{
				Engines: testEngines(m, 2),
				Router:  NewLeastLoaded(),
				Autoscaler: NewQueuePressure(QueuePressureOptions{
					HighWatermark: 2, LowWatermark: 0.5, SustainMS: 20, CooldownMS: 40,
				}),
				EngineFactory:       func(id int) *serve.Engine { return testEngines(m, 1)[0] },
				MinInstances:        1,
				MaxInstances:        6,
				AutoscaleIntervalMS: 25,
			})
		},
		trace:  func() []workload.Request { return testTrace(moe.Tiny(), 56, 200, 9) },
		source: func() workload.Source { return testSource(moe.Tiny(), 56, 200, 9) },
	})

	// A staging-heavy fleet: most fetches cross the shared NVMe staging
	// link.
	out = append(out, streamVariant{
		name: "staged",
		cluster: func() *Cluster {
			m := moe.NewModel(moe.Tiny(), 19)
			return New(Options{Engines: stagedEngines(m, 4), Router: NewRoundRobin()})
		},
		trace:  func() []workload.Request { return testTrace(moe.Tiny(), 40, 50, 21) },
		source: func() workload.Source { return testSource(moe.Tiny(), 40, 50, 21) },
	})

	// A mixed-model fleet: engines of two differently seeded models, so
	// a trace simulated with the wrong model would change the bytes. The
	// gate-trace pipeline stays off and every engine traces at admission.
	{
		d := streamDataset(41)
		opt := workload.OnlineOptions{Arrivals: workload.BurstyMMPP(60), N: 48, Seed: 6}
		out = append(out, streamVariant{
			name: "mixed-model",
			cluster: func() *Cluster {
				a, b := moe.NewModel(moe.Tiny(), 11), moe.NewModel(moe.Tiny(), 12)
				return New(Options{
					Engines: append(testEngines(a, 2), testEngines(b, 2)...),
					Router:  NewLeastLoaded(),
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
// multi-tenant mixes, fault plans with resilience, the combination, an
// autoscaled fleet, a staging-heavy fleet and a mixed-model fleet),
// RunStream over the generator source produces a ClusterResult
// byte-identical to RunTrace over the materialized trace. The reference
// run is made under GOMAXPROCS(1), where the gate-trace pipeline is off,
// so with -cpu above 1 every other run checks the pipeline against
// tracing at admission. On the session fleets ("sessions", "combo")
// queued admissions take jobs from the pipeline's admission feed; how
// many of those the helper traced first depends on thread scheduling, so
// TestTracePipelineAdmissionFeed, on a busier fleet, pins that it does.
func TestRunStreamByteParity(t *testing.T) {
	for _, v := range streamVariants() {
		t.Run(v.name, func(t *testing.T) {
			ref := func() []byte {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				return runStreamBytes(t, v.cluster(), func(c *Cluster) *Result {
					return c.RunTrace(v.trace())
				})
			}()
			fed := func(c *Cluster) {
				if v.queues && runtime.GOMAXPROCS(0) > 1 && c.feedJobs == 0 {
					t.Errorf("no queued admission took a job from the admission feed at GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
				}
			}
			c := v.cluster()
			materialized := runStreamBytes(t, c, func(c *Cluster) *Result {
				return c.RunTrace(v.trace())
			})
			if string(materialized) != string(ref) {
				t.Fatalf("materialized run at GOMAXPROCS=%d diverges from GOMAXPROCS=1 (%d vs %d bytes)",
					runtime.GOMAXPROCS(0), len(materialized), len(ref))
			}
			fed(c)
			c = v.cluster()
			got := runStreamBytes(t, c, func(c *Cluster) *Result {
				return c.RunStream(v.source())
			})
			if string(got) != string(ref) {
				t.Fatalf("streaming run diverges from materialized run (%d vs %d bytes)", len(got), len(ref))
			}
			fed(c)
		})
	}
}

// TestRunStreamHeapConsistency: after RunTrace and after RunStream on
// every fleet shape of the parity matrix, the next-event heap agrees
// with the linear scan, so no refresh point of the loop was missed.
func TestRunStreamHeapConsistency(t *testing.T) {
	for _, v := range streamVariants() {
		t.Run(v.name, func(t *testing.T) {
			c := v.cluster()
			c.RunTrace(v.trace())
			checkHeapAgainstScan(t, c)
			c = v.cluster()
			c.RunStream(v.source())
			checkHeapAgainstScan(t, c)
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

// TestTracePipelineAdmissionFeed pins when the pipeline's admission
// feed runs: on a multi-CPU runtime over a one-model session fleet whose
// engines queue follow-ups, some admissions take traces the helper made
// for their engine's next admission set; on one CPU or a mixed-model
// fleet none do.
func TestTracePipelineAdmissionFeed(t *testing.T) {
	run := func(procs int, mixed bool) (fed, served int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		a, b := moe.NewModel(moe.Tiny(), 7), moe.NewModel(moe.Tiny(), 7)
		if !mixed {
			b = a
		}
		sess := workload.NewSessions(streamDataset(12), moe.Tiny().SemDim,
			workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 0.02, Drift: 0.03}, 3)
		c := New(Options{
			Engines: append(testEngines(a, 2), testEngines(b, 2)...),
			Router:  NewLeastLoaded(),
			FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
				return sess.FollowUp(orig, done.EndMS)
			},
		})
		res := c.RunStream(sess.StreamInitial(workload.BurstyMMPP(600), 120, 0))
		return c.feedTraces, res.Served
	}
	f, n := run(2, false)
	t.Logf("GOMAXPROCS=2: %d of %d admissions took an admission-feed trace", f, n)
	if f == 0 || f >= n {
		t.Errorf("GOMAXPROCS=2, one model: %d of %d admissions took an admission-feed trace, want some but not all", f, n)
	}
	if f, _ := run(1, false); f != 0 {
		t.Errorf("GOMAXPROCS=1: %d admissions took an admission-feed trace, want the pipeline off", f)
	}
	if f, _ := run(2, true); f != 0 {
		t.Errorf("mixed-model fleet: %d admissions took an admission-feed trace, want the pipeline off", f)
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

	// The same request as an admission job: the helper survives its
	// panicking trace and leaves the job empty, so the engine traces the
	// request again at admission and the panic surfaces there.
	p := &tracePipeline{tr: m.NewTracer(), jobs: m.NewTraceQueue()}
	e := testEngines(m, 1)[0]
	e.SetTraceQueue(p.jobs)
	e.Submit(bad[12])
	p.serveJobs()
	if j := p.jobs.Start(); j != nil {
		t.Fatal("serveJobs left the job queued")
	}
	v := func() (v any) {
		defer func() { v = recover() }()
		e.Drain()
		return nil
	}()
	if s, ok := v.(string); !ok || !strings.Contains(s, "embedding dim") {
		t.Errorf("invalid request traced as an admission job: recovered %v", v)
	}
	if jobs, traced := p.jobs.Taken(); jobs != 1 || traced != 0 {
		t.Errorf("admission took %d jobs, %d of them traced, want 1 and 0", jobs, traced)
	}
}

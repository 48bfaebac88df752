// Package scenarios turns the cluster pipeline into a regression gauntlet:
// a Scenario declaratively pairs a workload shape (arrival process,
// multi-turn sessions, multi-tenant mix) with a fleet configuration
// (size, router, admission, autoscaling), and the Runner sweeps a matrix
// of scenarios through the admission → routing → instance pipeline into
// comparable, deterministically serializable Reports.
//
// The package exists so "how does the fleet behave under bursty traffic?"
// is a one-struct question instead of a bespoke experiment: the same spec
// drives finemoe-bench's scenariofig, finemoe-serve's replay mode, and
// the golden determinism tests.
package scenarios

import (
	"fmt"

	"finemoe/internal/cluster"
	"finemoe/internal/faults"
	"finemoe/internal/workload"
)

// WorkloadSpec declares a scenario's traffic. Exactly one of the three
// shapes applies, in precedence order: Tenants (multi-tenant mix),
// Sessions (closed-loop multi-turn), or the plain Dataset × Arrivals
// trace.
type WorkloadSpec struct {
	// Dataset is the prompt population (ignored when Tenants is set).
	Dataset workload.Dataset
	// Arrivals shapes the arrival timeline (ignored when Tenants is set).
	Arrivals workload.ArrivalProcess
	// Requests is the trace length (sessions: the number of session
	// openers; follow-up turns arrive on top).
	Requests int
	// Sessions, when non-nil, makes the workload closed-loop multi-turn:
	// Requests session openers arrive on Arrivals, and each completion
	// may spawn a semantically close follow-up after a think time.
	Sessions *workload.SessionConfig
	// Tenants, when non-empty, replaces Dataset/Arrivals/Requests with a
	// per-tenant mix merged into one arrival-ordered trace.
	Tenants []workload.TenantSpec
}

// FleetSpec declares the serving side: fleet size and pipeline policies,
// by name so specs stay declarative and serializable.
type FleetSpec struct {
	// Instances is the initial fleet size (autoscaled fleets start here).
	Instances int
	// Router names the placement policy:
	// round-robin | least-loaded | semantic-affinity (default).
	Router string
	// Admission names the gate: always (default) | token-bucket |
	// reject-all; AdmitBurst/AdmitRate parameterize token-bucket.
	Admission             string
	AdmitBurst, AdmitRate float64
	// Autoscale enables queue-pressure fleet resizing between
	// MinInstances and MaxInstances (defaults: 1 and 4×Instances).
	Autoscale                  bool
	MinInstances, MaxInstances int
	// Queue-pressure tuning (with Autoscale). Zero values take the
	// policy's own defaults — the same configuration a live
	// `finemoe-serve -autoscale` server runs with, so a replayed
	// scenario predicts the real server's scaling behavior unless the
	// spec explicitly opts into different tuning.
	HighWatermark, LowWatermark float64
	SustainMS, CooldownMS       float64
	// TickMS spaces autoscale evaluations on the shared clock (0 = the
	// cluster's default interval).
	TickMS float64
}

// Label renders the fleet's short identity for reports.
func (f FleetSpec) Label() string {
	if f.Autoscale {
		return fmt.Sprintf("auto[%d..%d]/%s", f.minInst(), f.maxInst(), f.router())
	}
	return fmt.Sprintf("fixed-%d/%s", f.Instances, f.router())
}

func (f FleetSpec) router() string {
	switch f.Router {
	case "", "semantic":
		return "semantic-affinity"
	}
	return f.Router
}

func (f FleetSpec) minInst() int {
	if f.MinInstances <= 0 {
		return 1
	}
	return f.MinInstances
}

func (f FleetSpec) maxInst() int {
	if f.MaxInstances <= 0 {
		return 4 * f.Instances
	}
	return f.MaxInstances
}

// FaultSpec declares a scenario's failure schedule and the resilience
// policy protecting against it. A nil FaultSpec (or one with an empty
// plan and disabled resilience) leaves the run byte-identical to a
// fault-free scenario.
type FaultSpec struct {
	// Crashes, Brownouts and Stalls form the declarative fault plan
	// (see internal/faults).
	Crashes   []faults.Crash
	Brownouts []faults.Brownout
	Stalls    []faults.Stall
	// Resilience configures request-level fault tolerance.
	Resilience cluster.ResilienceOptions
}

// plan assembles the spec's fault plan (nil when empty).
func (f *FaultSpec) plan() *faults.Plan {
	if f == nil {
		return nil
	}
	return &faults.Plan{Crashes: f.Crashes, Brownouts: f.Brownouts, Stalls: f.Stalls}
}

// checkTargets rejects a fault aimed at an instance a fixed fleet of n
// instances never has. Its IDs are 0..n-1, plus one cold replacement
// per crash under ReplaceOnCrash. Run skips the check for autoscaled
// fleets, whose IDs grow without bound.
func (f *FaultSpec) checkTargets(n int) error {
	if f == nil {
		return nil
	}
	if f.Resilience.ReplaceOnCrash {
		n += len(f.Crashes)
	}
	top := faults.AllInstances
	for _, c := range f.Crashes {
		top = max(top, c.Instance)
	}
	for _, b := range f.Brownouts {
		top = max(top, b.Instance)
	}
	for _, s := range f.Stalls {
		top = max(top, s.Instance)
	}
	if top >= n {
		return fmt.Errorf("fault plan targets instance %d, but the fleet's instance IDs stop at %d", top, n-1)
	}
	return nil
}

// faulted reports whether the spec schedules any fault or enables any
// resilience mechanism.
func (f *FaultSpec) faulted() bool {
	return f != nil && (!f.plan().Empty() || f.Resilience.Enabled || f.Resilience.ReplaceOnCrash)
}

// Scenario is one cell of the gauntlet: a named workload × fleet pairing.
type Scenario struct {
	// Name identifies the scenario in reports and tables.
	Name     string
	Workload WorkloadSpec
	Fleet    FleetSpec
	// Faults, when non-nil, injects the declared failure schedule into
	// the run and applies its resilience policy (see FaultSpec).
	Faults *FaultSpec
}

// NewRouter resolves a FleetSpec's router name to a fresh policy
// instance.
func NewRouter(name string) (cluster.Router, error) {
	switch name {
	case "round-robin":
		return cluster.NewRoundRobin(), nil
	case "least-loaded":
		return cluster.NewLeastLoaded(), nil
	case "memory-aware", "memory":
		return cluster.NewMemoryAware(), nil
	case "semantic-affinity", "semantic", "":
		return cluster.NewSemanticAffinity(cluster.SemanticAffinityOptions{}), nil
	}
	return nil, fmt.Errorf("scenarios: unknown router %q (round-robin|least-loaded|memory-aware|semantic-affinity)", name)
}

// NewAdmission resolves a FleetSpec's admission name to a fresh policy
// instance.
func NewAdmission(name string, burst, rate float64) (cluster.Admission, error) {
	switch name {
	case "always", "always-admit", "":
		return cluster.NewAlwaysAdmit(), nil
	case "token-bucket":
		return cluster.NewTokenBucket(burst, rate), nil
	case "reject-all":
		return cluster.NewRejectAll(), nil
	}
	return nil, fmt.Errorf("scenarios: unknown admission %q (always|token-bucket|reject-all)", name)
}

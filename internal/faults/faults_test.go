package faults

import (
	"math"
	"strings"
	"testing"
)

func TestCompileOrderAndExpansion(t *testing.T) {
	p := &Plan{
		Crashes:   []Crash{{AtMS: 100, Instance: 1, DetectMS: 50}},
		Brownouts: []Brownout{{AtMS: 100, DurationMS: 40, Link: LinkStaging, Factor: 0.5, Instance: AllInstances}},
		Stalls:    []Stall{{AtMS: 60, DurationMS: 10, Link: LinkPCIe, Instance: 0}},
	}
	evs, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(evs))
	for i, e := range evs {
		got[i] = e.Kind.String()
	}
	// Stall at 60; at 100 the crash (compile seq 0) precedes the brownout
	// (seq 2); the brownout restore at 140 precedes the detect at 150.
	want := []string{"stall", "crash", "brownout", "restore", "detect"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("compile order %v, want %v", got, want)
	}
	if evs[4].TimeMS != 150 {
		t.Fatalf("detect at %v, want 150", evs[4].TimeMS)
	}
	if evs[2].EndMS != 140 || evs[2].Factor != 0.5 {
		t.Fatalf("brownout window %+v", evs[2])
	}
}

func TestCompileDeterminism(t *testing.T) {
	p := &Plan{
		Crashes: []Crash{
			{AtMS: 420.5, Instance: 3, DetectMS: 200},
			{AtMS: 420.5, Instance: 1, DetectMS: 200},
			{AtMS: 1800, Instance: 0, DetectMS: 200},
			{AtMS: 7311.2, Instance: 2, DetectMS: 200},
			{AtMS: 9999.9, Instance: 3, DetectMS: 200},
		},
		Brownouts: []Brownout{{AtMS: 1, DurationMS: 2, Factor: 0.1, Instance: AllInstances}},
	}
	a, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Compile()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*Plan{
		{Crashes: []Crash{{AtMS: -1, Instance: 0}}},
		{Crashes: []Crash{{AtMS: 0, Instance: -1}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: 0, Factor: 0.5}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: 1, Factor: 1.5}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: 1, Factor: 0}}},
		{Stalls: []Stall{{AtMS: 0, DurationMS: 0}}},
		// Non-finite times, durations, latencies and factors, and
		// windows whose end overflows.
		{Crashes: []Crash{{AtMS: math.NaN(), Instance: 0}}},
		{Crashes: []Crash{{AtMS: math.Inf(1), Instance: 0}}},
		{Crashes: []Crash{{AtMS: 0, Instance: 0, DetectMS: math.NaN()}}},
		{Crashes: []Crash{{AtMS: 0, Instance: 0, DetectMS: math.Inf(1)}}},
		{Crashes: []Crash{{AtMS: math.MaxFloat64, Instance: 0, DetectMS: math.MaxFloat64}}},
		{Brownouts: []Brownout{{AtMS: math.NaN(), DurationMS: 1, Factor: 0.5}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: math.NaN(), Factor: 0.5}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: math.Inf(1), Factor: 0.5}}},
		{Brownouts: []Brownout{{AtMS: math.MaxFloat64, DurationMS: math.MaxFloat64, Factor: 0.5}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: 1, Factor: math.NaN()}}},
		{Brownouts: []Brownout{{AtMS: 0, DurationMS: 1, Factor: math.Inf(1)}}},
		{Stalls: []Stall{{AtMS: math.Inf(1), DurationMS: 1}}},
		{Stalls: []Stall{{AtMS: 0, DurationMS: math.NaN()}}},
		{Stalls: []Stall{{AtMS: 0, DurationMS: math.Inf(1)}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %d: expected validation error", i)
		}
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.Validate() != nil {
		t.Fatal("nil plan should be empty and valid")
	}
}

// goodPlanSpec exercises every kind and field of the plan syntax.
const goodPlanSpec = "crash@5000:i1:d250, brownout@2000+3000:staging:x0.25:i0, stall@1000+200:pcie"

// badPlanSpecs are specs ParsePlan must reject.
var badPlanSpecs = []string{
	"crash@5000",         // no instance
	"nuke@1",             // unknown kind
	"brownout@1:x0.5",    // no window
	"crash@x",            // bad time
	"crash@1:i0:zoom",    // unknown field
	"brownout@1+2:x9:i0", // factor out of range
	// Non-finite values, which used to crash or hang the cluster loop
	// or serve NaN latencies.
	"crash@NaN:i0",
	"crash@Inf:i0",
	"crash@5:i0:dNaN",
	"crash@5:i0:d+Inf",
	"stall@NaN+5:pcie",
	"stall@5+Inf:pcie",
	"brownout@100+NaN:pcie:x0.5",
	"brownout@100+200:pcie:xNaN:i0",
	"brownout@100+200:pcie:x-Inf:i0",
	"brownout@1e308+1e308:pcie:x0.5",
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan(goodPlanSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{AtMS: 5000, Instance: 1, DetectMS: 250}) {
		t.Fatalf("crashes: %+v", p.Crashes)
	}
	if len(p.Brownouts) != 1 || p.Brownouts[0] != (Brownout{AtMS: 2000, DurationMS: 3000, Link: LinkStaging, Factor: 0.25, Instance: 0}) {
		t.Fatalf("brownouts: %+v", p.Brownouts)
	}
	if len(p.Stalls) != 1 || p.Stalls[0] != (Stall{AtMS: 1000, DurationMS: 200, Link: LinkPCIe, Instance: AllInstances}) {
		t.Fatalf("stalls: %+v", p.Stalls)
	}
	for _, bad := range badPlanSpecs {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q): expected error", bad)
		}
	}
}

// FuzzParsePlan: no spec panics the parser, and every plan it accepts
// compiles to an event stream whose times are finite and non-decreasing —
// what the cluster loop's event merge relies on.
func FuzzParsePlan(f *testing.F) {
	f.Add(goodPlanSpec)
	for _, spec := range badPlanSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		evs, err := p.Compile()
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted a plan Compile rejects: %v", spec, err)
		}
		prev := 0.0
		for i, e := range evs {
			if !(e.TimeMS >= prev && e.TimeMS <= math.MaxFloat64) {
				t.Fatalf("ParsePlan(%q): event %d at %v after %v", spec, i, e.TimeMS, prev)
			}
			if !(e.EndMS >= 0 && e.EndMS <= math.MaxFloat64) {
				t.Fatalf("ParsePlan(%q): event %d ends at %v", spec, i, e.EndMS)
			}
			prev = e.TimeMS
		}
	})
}

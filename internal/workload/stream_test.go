package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// TestMaterializersSizeExactly: every materializing generator collects
// its stream into a slice allocated once at the known request count.
func TestMaterializersSizeExactly(t *testing.T) {
	d := LMSYSChat1M()
	sess := NewSessions(d, 8, SessionConfig{MeanTurns: 3}, 1)
	for name, tc := range map[string]struct {
		reqs []Request
		n    int
	}{
		"OnlineTrace":      {OnlineTrace(d, 8, OnlineOptions{Arrivals: BurstyMMPP(4), N: 37, Seed: 1}), 37},
		"MultiTenantTrace": {MultiTenantTrace(8, 1, testTenants()), 50},
		"Sessions.Initial": {sess.Initial(Poisson{RatePerSec: 4}, 23, 0), 23},
	} {
		if len(tc.reqs) != tc.n || cap(tc.reqs) != tc.n {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(tc.reqs), cap(tc.reqs), tc.n)
		}
	}
}

func TestSliceSourceRoundTrip(t *testing.T) {
	trace := AzureTrace(LMSYSChat1M(), 8, TraceConfig{RatePerSec: 4, N: 32, Seed: 1})
	got := Collect(NewSliceSource(trace))
	if !reflect.DeepEqual(got, trace) {
		t.Fatal("SliceSource does not replay its slice")
	}
	// Exhausted sources stay exhausted.
	src := NewSliceSource(trace)
	Collect(src)
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted SliceSource yielded a request")
	}
}

// TestArenaRowCapped verifies arena rows are full-slice-capped: appending
// through one row must reallocate, never clobber the next row.
func TestArenaRowCapped(t *testing.T) {
	a := NewArena(4)
	r1, r2 := a.Row(), a.Row()
	if cap(r1) != 4 || cap(r2) != 4 {
		t.Fatalf("arena rows not capped at dim: caps %d, %d", cap(r1), cap(r2))
	}
	r2[0] = 7
	_ = append(r1, 99)
	if r2[0] != 7 {
		t.Fatal("append through row 1 clobbered row 2")
	}
}

// TestReadTraceArenaBacked is the persistence regression test: a
// round-tripped trace must be value-identical to the original, and the
// returned embeddings must have the arena layout (dim-capped rows) rather
// than keeping the decoder's oversized per-request slices alive.
func TestReadTraceArenaBacked(t *testing.T) {
	d := LMSYSChat1M()
	orig := Collect(StreamOnline(d, 8, OnlineOptions{
		Arrivals: BurstyMMPP(4), N: 50, Seed: 17, Tenant: "t",
	}))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d, 8, orig); err != nil {
		t.Fatal(err)
	}
	gotD, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotD.Name != d.Name {
		t.Fatalf("dataset name %q != %q", gotD.Name, d.Name)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatal("round-tripped trace diverges from original")
	}
	for i, q := range got {
		if cap(q.Embedding) != 8 {
			t.Fatalf("request %d: embedding cap %d, want arena row cap 8", i, cap(q.Embedding))
		}
	}
}

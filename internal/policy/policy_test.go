package policy

import (
	"testing"

	"finemoe/internal/moe"
)

func TestBaseDefaults(t *testing.T) {
	var b Base
	if d := b.StartRequest(1, 0); d != 0 {
		t.Fatal("StartRequest default not zero")
	}
	if d := b.StartIteration(nil, 0); d != 0 {
		t.Fatal("StartIteration default not zero")
	}
	if d := b.OnGate(0, nil, 0); d != 0 {
		t.Fatal("OnGate default not zero")
	}
	if d := b.EndIteration(1, &moe.Iteration{}, 0); d != 0 {
		t.Fatal("EndIteration default not zero")
	}
	b.EndRequest(1, 0) // must not panic
	if b.Scorer() == nil || b.Scorer().Name() != "LRU" {
		t.Fatal("default scorer must be LRU")
	}
	if b.MemoryOverheadBytes() != 0 {
		t.Fatal("default memory overhead")
	}
}

func TestBaseAttach(t *testing.T) {
	var b Base
	if b.RT != nil {
		t.Fatal("zero Base has runtime")
	}
	b.Attach(nil)
	// Attach stores whatever it is given; policies check for nil.
}

func TestComponentNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for c := range Component(NumComponents) {
		n := c.String()
		if n == "" || seen[n] {
			t.Fatalf("component %d name %q empty or repeated", c, n)
		}
		seen[n] = true
	}
	if CompPredict.String() != "predict_sync" {
		t.Fatalf("CompPredict reports as %q", CompPredict)
	}
}

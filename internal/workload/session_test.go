package workload

import (
	"math"
	"testing"

	"finemoe/internal/tensor"
)

func testSessions() *Sessions {
	return NewSessions(LMSYSChat1M(), 32,
		SessionConfig{MeanTurns: 3, ThinkTimeS: 1, Drift: 0.05}, 77)
}

// TestSessionInitial: openers are a plain trace with session identity.
func TestSessionInitial(t *testing.T) {
	s := testSessions()
	reqs := s.Initial(Poisson{RatePerSec: 4}, 20, 0)
	if len(reqs) != 20 {
		t.Fatalf("got %d openers", len(reqs))
	}
	for i, q := range reqs {
		if q.Session != q.ID || q.Turn != 0 {
			t.Fatalf("opener %d: session %d / turn %d, want own ID / 0", i, q.Session, q.Turn)
		}
		if i > 0 && q.ArrivalMS < reqs[i-1].ArrivalMS {
			t.Fatalf("opener arrivals decrease at %d", i)
		}
	}
}

// TestSessionFollowUpSemantics: a follow-up arrives after its parent
// completes, stays in the parent's session and semantic neighborhood, and
// keeps the parent's topic, dataset and tenant.
func TestSessionFollowUpSemantics(t *testing.T) {
	s := testSessions()
	openers := s.Initial(Poisson{RatePerSec: 4}, 30, 0)
	var parent, fu Request
	found := false
	for _, parent = range openers {
		parent.Tenant = "acme"
		var ok bool
		if fu, ok = s.FollowUp(parent, 5000); ok {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no session continued past turn 0 in 30 openers")
	}
	if fu.Session != parent.Session || fu.Turn != parent.Turn+1 {
		t.Fatalf("follow-up thread identity wrong: %d/%d", fu.Session, fu.Turn)
	}
	if fu.ArrivalMS < 5000 {
		t.Fatalf("follow-up arrives at %.1f, before parent completion", fu.ArrivalMS)
	}
	if fu.ID == parent.ID {
		t.Fatal("follow-up reused parent ID")
	}
	if fu.Topic != parent.Topic || fu.Dataset != parent.Dataset || fu.Tenant != "acme" {
		t.Fatal("follow-up lost workload metadata")
	}
	if sim := tensor.Cosine(fu.Embedding, parent.Embedding); sim < 0.95 {
		t.Fatalf("follow-up drifted too far: cosine %.3f", sim)
	}
	if math.Abs(tensor.Norm(fu.Embedding)-1) > 1e-9 {
		t.Fatalf("follow-up embedding not unit norm")
	}
}

// TestSessionFollowUpDeterminism: follow-ups are a pure function of
// (seed, session, turn, completion time) — regeneration reproduces them.
func TestSessionFollowUpDeterminism(t *testing.T) {
	s := testSessions()
	parent := s.Initial(Poisson{RatePerSec: 4}, 1, 0)[0]
	a, okA := s.FollowUp(parent, 1234)
	b, okB := s.FollowUp(parent, 1234)
	if okA != okB {
		t.Fatal("follow-up continuation not deterministic")
	}
	if okA && (a.ID != b.ID || a.ArrivalMS != b.ArrivalMS || a.InputTokens != b.InputTokens) {
		t.Fatal("follow-up not deterministic")
	}
}

// TestSessionMeanTurns: over many sessions, the expected number of turns
// tracks the configured geometric mean.
func TestSessionMeanTurns(t *testing.T) {
	s := testSessions()
	openers := s.Initial(Poisson{RatePerSec: 4}, 400, 0)
	total := 0
	for _, q := range openers {
		turns := 1
		cur := q
		for {
			fu, ok := s.FollowUp(cur, cur.ArrivalMS+1000)
			if !ok {
				break
			}
			turns++
			cur = fu
		}
		total += turns
	}
	mean := float64(total) / float64(len(openers))
	if math.Abs(mean-3)/3 > 0.15 {
		t.Errorf("mean session length %.2f turns, want ~3", mean)
	}
}

// TestSessionMaxTurns: the 16-turn cap ends even always-continue
// sessions.
func TestSessionMaxTurns(t *testing.T) {
	s := NewSessions(LMSYSChat1M(), 16,
		SessionConfig{MeanTurns: 1e9, ThinkTimeS: 1}, 3)
	cur := s.Initial(Poisson{RatePerSec: 4}, 1, 0)[0]
	turns := 1
	for {
		fu, ok := s.FollowUp(cur, cur.ArrivalMS+100)
		if !ok {
			break
		}
		turns++
		cur = fu
		if turns > 2*maxTurns {
			t.Fatal("session exceeded the turn cap without ending")
		}
	}
	if turns != 16 {
		t.Fatalf("session ran %d turns, want the cap of 16", turns)
	}
}

// TestSingleTurnSessions: MeanTurns ≤ 1 never continues.
func TestSingleTurnSessions(t *testing.T) {
	s := NewSessions(LMSYSChat1M(), 16, SessionConfig{MeanTurns: 1}, 3)
	q := s.Initial(Poisson{RatePerSec: 4}, 1, 0)[0]
	if _, ok := s.FollowUp(q, 100); ok {
		t.Fatal("MeanTurns=1 session continued")
	}
}

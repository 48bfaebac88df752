// Multi-turn sessions: conversations whose follow-up turns arrive only
// after the previous turn completes (closed-loop), stay semantically close
// to it, and therefore exercise exactly the machinery fMoE's semantic
// locality argument relies on — Expert Map Store reuse and fleet-level
// semantic-affinity routing.
package workload

import (
	"fmt"
	"math"

	"finemoe/internal/rng"
	"finemoe/internal/tensor"
)

// SessionConfig shapes multi-turn conversations.
type SessionConfig struct {
	// MeanTurns is the mean session length in turns. Lengths are
	// geometric: after every turn the session continues with probability
	// 1 − 1/MeanTurns, so MeanTurns ≤ 1 means single-turn sessions.
	// No session runs past 16 turns.
	MeanTurns float64
	// ThinkTimeS is the mean exponential think time between a turn's
	// completion and the follow-up's arrival, in seconds.
	ThinkTimeS float64
	// Drift is the per-turn embedding drift: each follow-up's embedding is
	// the parent's nudged by Drift×(unit noise) and renormalized, so small
	// values keep the conversation inside its semantic neighborhood.
	Drift float64
}

// maxTurns caps a session's length: the turn with index maxTurns−1 is
// always the last.
const maxTurns = 16

func (c SessionConfig) withDefaults() SessionConfig {
	if c.ThinkTimeS <= 0 {
		c.ThinkTimeS = 2
	}
	if c.Drift < 0 {
		c.Drift = 0
	}
	return c
}

// sessionSalt namespaces per-turn follow-up sampling.
const sessionSalt uint64 = 0x5e55

// turnIDStride separates the request IDs of a session's turns: turn k of
// session s has ID s + k·turnIDStride, unique while initial IDs stay below
// the stride and sessions below maxTurns turns.
const turnIDStride uint64 = 1 << 48

// Sessions generates multi-turn session workloads over a dataset. The
// opening turns form an ordinary arrival-process trace; follow-ups are
// produced one at a time by FollowUp as the serving system completes
// parents (closed-loop — see cluster.Options.FollowUp).
type Sessions struct {
	d    Dataset
	dim  int
	cfg  SessionConfig
	seed uint64
}

// NewSessions builds a session generator. Determinism: every sampled
// quantity is keyed on (seed, session, turn), so follow-ups do not depend
// on generation order.
func NewSessions(d Dataset, dim int, cfg SessionConfig, seed uint64) *Sessions {
	if dim <= 0 {
		panic(fmt.Sprintf("workload: invalid session dim %d", dim))
	}
	return &Sessions{d: d, dim: dim, cfg: cfg.withDefaults(), seed: seed}
}

// Initial samples n session-opening requests (turn 0) with arrival times
// from the given process: StreamInitial collected into a slice. Each
// request's Session is its own ID, so follow-ups inherit the thread
// identity.
func (s *Sessions) Initial(ap ArrivalProcess, n int, idBase uint64) []Request {
	return collect(s.StreamInitial(ap, n, idBase), n)
}

// FollowUp returns the next turn of the parent's session, arriving an
// exponential think time after doneMS (the parent's completion time), or
// ok=false when the session ends. The follow-up's embedding is the
// parent's drifted by cfg.Drift, its lengths are fresh dataset samples,
// and its topic, dataset and tenant carry over.
func (s *Sessions) FollowUp(parent Request, doneMS float64) (Request, bool) {
	turn := parent.Turn + 1
	if turn >= maxTurns || s.cfg.MeanTurns <= 1 {
		return Request{}, false
	}
	r := rng.New(rng.Mix(s.seed, parent.Session, uint64(turn), sessionSalt))
	if r.Float64() >= 1-1/s.cfg.MeanTurns {
		return Request{}, false
	}

	emb := tensor.Copy(parent.Embedding)
	if s.cfg.Drift > 0 {
		noise := make([]float64, len(emb))
		r.UnitVec(noise)
		tensor.Axpy(s.cfg.Drift, noise, emb)
		tensor.Normalize(emb)
	}

	in := sampleLen(r, s.d.MeanInput, s.d.LenSigma, 4, 2048)
	out := sampleLen(r, s.d.MeanOutput, s.d.LenSigma, 2, 1024)
	id := parent.ID + turnIDStride
	q := parent
	q.ID = id
	q.Seed = rng.Mix(s.seed, id, sessionSalt)
	q.Embedding = emb
	q.InputTokens = in
	q.OutputTokens = out
	q.Turn = turn
	q.ArrivalMS = doneMS + r.Exp(1/s.cfg.ThinkTimeS)*1000
	if math.IsNaN(q.ArrivalMS) || q.ArrivalMS < doneMS {
		q.ArrivalMS = doneMS
	}
	return q, true
}

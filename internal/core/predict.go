package core

import (
	"finemoe/internal/moe"
)

// PredictOptions configures engine-free prediction evaluation, used by the
// motivation and ablation experiments (Figs. 4, 8, 14a, 16a) that measure
// prediction hit rates directly rather than end-to-end latency.
type PredictOptions struct {
	// D is the prefetch distance: layer l's prediction may only use
	// trajectory observations from layers [0, l-d].
	D int
	// TopK is the per-layer activation count (minimum selection size).
	TopK int
	// Dynamic enables the δ-threshold selection (§4.3); false selects a
	// static top-K — the Map(T+S) ablation.
	Dynamic bool
	// UseSemantic guides layers [0, D) with semantic search; false
	// leaves them unguided — the Map(T) ablation.
	UseSemantic bool
	// UseTrajectory guides layers [D, L) with trajectory-prefix search;
	// false falls back to the semantic match for all layers.
	UseTrajectory bool
}

// Prediction is the outcome of simulating the search protocol over one
// iteration.
type Prediction struct {
	// Sets[l] is the predicted expert set for layer l (nil = unguided).
	Sets [][]int
	// SemScore is the semantic search score (NaN-free; -1 if unused or
	// store empty).
	SemScore float64
	// TrajScores holds the trajectory search scores for layers [D, L).
	TrajScores []float64
}

// PredictIteration replays the paper's §4.2 protocol for a single iteration
// against a searcher: semantic search guides layers [0, D), and for each
// layer l >= D a trajectory-prefix search over layers [0, l-D] guides
// layer l. It returns per-layer predicted expert sets.
func PredictIteration(s *Searcher, it *moe.Iteration, opt PredictOptions) Prediction {
	cfg := s.cfg
	if opt.D < 1 {
		opt.D = 1
	}
	if opt.TopK <= 0 {
		opt.TopK = cfg.TopK
	}
	pred := Prediction{Sets: make([][]int, cfg.Layers), SemScore: -1}

	selectFrom := func(res SearchResult, layer int) []int {
		probs := res.Map.LayerProbs(layer, cfg.RoutedExperts)
		if opt.Dynamic {
			return SelectExperts(probs, res.Score, opt.TopK)
		}
		return SelectExpertsStatic(probs, opt.TopK)
	}

	// One prepared query serves the semantic search and the cursor.
	q := s.Prepare(it.Semantic)
	var sem SearchResult
	var semOK bool
	if opt.UseSemantic {
		sem, semOK = s.SemanticSearchQ(q)
		if semOK {
			pred.SemScore = sem.Score
			for l := 0; l < opt.D && l < cfg.Layers; l++ {
				pred.Sets[l] = selectFrom(sem, l)
			}
		}
	}

	cur := s.NewCursorQ(q)
	q.Release()
	defer cur.Release()
	// Layer lNow's observation guides layer lNow+D; the last D layers
	// guide nothing, so the loop stops before observing them.
	for lNow := 0; lNow+opt.D < cfg.Layers; lNow++ {
		if cur != nil {
			cur.Observe(it.Probs[lNow])
		}
		target := lNow + opt.D
		if opt.UseTrajectory && cur != nil {
			if res, ok := cur.Best(); ok {
				pred.Sets[target] = selectFrom(res, target)
				pred.TrajScores = append(pred.TrajScores, res.Score)
				continue
			}
		}
		if semOK {
			pred.Sets[target] = selectFrom(sem, target)
		}
	}
	return pred
}

// HitRate scores the prediction against the iteration's true activations.
func (p Prediction) HitRate(it *moe.Iteration) float64 {
	return moe.IterationHitRate(it, p.Sets)
}

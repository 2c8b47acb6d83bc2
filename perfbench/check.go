package main

import (
	"fmt"
	"slices"

	crowdtopk "crowdtopk"
)

// checkResults verifies what the front door served: every session ended
// converged or exhausted with a valid top-K result, and a fixed sample of
// sessions matches a direct crowdtopk.NewSession replay of the same answer
// script. It returns the first problem found.
func checkResults(in *inputs, scripts []script, res []sessionResult) error {
	for i := range res {
		if err := validOutcome(in.Shape, &res[i]); err != nil {
			return fmt.Errorf("session %d: %w", scripts[i].Index, err)
		}
	}
	for _, i := range replaySample(len(scripts)) {
		want, err := replayDirect(in, &scripts[i])
		if err != nil {
			return fmt.Errorf("session %d: direct replay: %w", scripts[i].Index, err)
		}
		got := res[i].outcome
		if got.State != want.State || got.Asked != want.Asked || !slices.Equal(got.Ranking, want.Ranking) {
			return fmt.Errorf("session %d: served %+v, direct replay %+v", scripts[i].Index, got, want)
		}
	}
	return nil
}

func validOutcome(sh shape, r *sessionResult) error {
	if r.err != nil {
		return r.err
	}
	if !terminal(r.State) {
		return fmt.Errorf("ended in state %q", r.State)
	}
	if len(r.Ranking) != sh.K {
		return fmt.Errorf("result %v is not a top-%d", r.Ranking, sh.K)
	}
	seen := make(map[int]bool, sh.K)
	for _, t := range r.Ranking {
		if t < 0 || t >= sh.N || seen[t] {
			return fmt.Errorf("result %v is not a permutation of %d of %d tuples", r.Ranking, sh.K, sh.N)
		}
		seen[t] = true
	}
	return nil
}

// replaySample picks eight sessions spread evenly over a run of n.
func replaySample(n int) []int {
	const k = 8
	var idx []int
	for i := 0; i < k && i < n; i++ {
		idx = append(idx, i*n/min(k, n))
	}
	return idx
}

// replayDirect plays sc through a crowdtopk.Session with no server, store or
// codec in the way, answering from the same crowd.
func replayDirect(in *inputs, sc *script) (outcome, error) {
	ds, err := in.dataset(sc.Dataset)
	if err != nil {
		return outcome{}, err
	}
	s, err := crowdtopk.NewSession(ds, crowdtopk.Query{K: in.Shape.K, Budget: in.Shape.Budget, Seed: sc.Seed}, in.Shape.Reliability)
	if err != nil {
		return outcome{}, err
	}
	cr := newCrowd(sc, in.Shape.Accuracy)
	for !s.State().Terminal() {
		qs, err := s.NextQuestions(0)
		if err != nil {
			return outcome{}, err
		}
		if len(qs) == 0 {
			break
		}
		for _, q := range qs {
			a := cr.answer(pair{q.I, q.J})
			if err := s.SubmitAnswer(crowdtopk.Answer{Q: q, Yes: a.Yes}); err != nil {
				return outcome{}, err
			}
		}
	}
	r := s.Result()
	return outcome{State: string(s.State()), Ranking: r.Ranking, Asked: r.QuestionsAsked}, nil
}

// quality is the mean over sessions of 1 − the paper's normalized distance
// between the served top-K and the true top-K, summed in script order so
// the figure repeats exactly for a seed.
func quality(in *inputs, scripts []script, res []sessionResult) (q, asked float64) {
	for i := range res {
		truth := newCrowd(&scripts[i], 1).topK(in.Shape.K)
		q += 1 - crowdtopk.RankDistance(res[i].Ranking, truth)
		asked += float64(res[i].Asked)
	}
	n := float64(len(res))
	return q / n, asked / n
}

package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/engine"
	"crowdtopk/internal/par"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

func testDists(t *testing.T, n int, seed int64) []dist.Distribution {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{N: n, Width: 2.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// drive answers every question the session asks with cr until the session
// terminates, pulling `batch` questions at a time (batch < 1 pulls all
// pending).
func drive(t *testing.T, s *Session, cr crowd.Crowd, batch int) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		qs, _, err := s.NextQuestions(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			if !s.State().Terminal() {
				t.Fatalf("no questions but state %s is not terminal", s.State())
			}
			return
		}
		for _, q := range qs {
			if err := s.SubmitAnswer(cr.Ask(q)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("session did not terminate")
}

// TestSessionMatchesEngine: for every algorithm, a session fed by the same
// crowd reproduces the batch engine's result — ranking, question count,
// surviving orderings and resolution — because both consume the same
// extracted transition code.
func TestSessionMatchesEngine(t *testing.T) {
	ds := testDists(t, 7, 5)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(99)))
	algs := []string{
		engine.AlgT1On, engine.AlgAStarOn,
		engine.AlgTBOff, engine.AlgCOff, engine.AlgAStarOff,
		engine.AlgRandom, engine.AlgNaive,
		engine.AlgIncr,
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			const k, budget, seed = 3, 12, 17
			m, err := uncertainty.New("MPO")
			if err != nil {
				t.Fatal(err)
			}
			// Truth is passed explicitly so the engine's RNG is consumed
			// only by the strategy, matching the session's RNG stream for
			// the random baselines.
			want, err := engine.Run(engine.Config{
				Dists: ds, K: k, Budget: budget, Algorithm: alg,
				Measure: m, Crowd: &crowd.PerfectOracle{Truth: truth},
				Truth: truth, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}

			s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: alg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, s, &crowd.PerfectOracle{Truth: truth}, 0)
			got := s.Result()

			if got.Asked != want.Asked {
				t.Errorf("asked = %d, want %d", got.Asked, want.Asked)
			}
			if got.Orderings != want.FinalLeaves {
				t.Errorf("orderings = %d, want %d", got.Orderings, want.FinalLeaves)
			}
			if got.Resolved != want.Resolved {
				t.Errorf("resolved = %v, want %v", got.Resolved, want.Resolved)
			}
			if len(got.Ranking) != len(want.FinalOrdering) {
				t.Fatalf("ranking %v, want %v", got.Ranking, want.FinalOrdering)
			}
			for i := range got.Ranking {
				if got.Ranking[i] != want.FinalOrdering[i] {
					t.Fatalf("ranking %v, want %v", got.Ranking, want.FinalOrdering)
				}
			}
			if math.Abs(got.Uncertainty-want.FinalUncertainty) > 1e-9 {
				t.Errorf("uncertainty = %v, want %v", got.Uncertainty, want.FinalUncertainty)
			}
			wantState := Exhausted
			if want.Resolved {
				wantState = Converged
			}
			if got.State != wantState {
				t.Errorf("state = %s, want %s", got.State, wantState)
			}
		})
	}
}

// TestSessionNoisyMatchesEngine: with reliability < 1 the session reweights
// exactly as the engine does for the same worker answers.
func TestSessionNoisyMatchesEngine(t *testing.T) {
	ds := testDists(t, 6, 11)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(4)))
	const k, budget, accuracy = 2, 10, 0.8
	newCrowd := func() crowd.Crowd {
		pf, err := crowd.NewUniformPlatform(truth, 16, accuracy, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	m, err := uncertainty.New("MPO")
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(engine.Config{
		Dists: ds, K: k, Budget: budget, Algorithm: engine.AlgT1On,
		Measure: m, Crowd: newCrowd(), Truth: truth, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	cr := newCrowd()
	s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: engine.AlgT1On, Reliability: cr.Reliability()})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, cr, 0)
	got := s.Result()
	if got.Asked != want.Asked || got.Orderings != want.FinalLeaves {
		t.Fatalf("asked/orderings = %d/%d, want %d/%d", got.Asked, got.Orderings, want.Asked, want.FinalLeaves)
	}
	for i := range got.Ranking {
		if got.Ranking[i] != want.FinalOrdering[i] {
			t.Fatalf("ranking %v, want %v", got.Ranking, want.FinalOrdering)
		}
	}
	if math.Abs(got.Uncertainty-want.FinalUncertainty) > 1e-9 {
		t.Fatalf("uncertainty = %v, want %v", got.Uncertainty, want.FinalUncertainty)
	}
}

// TestSessionCheckpointRestoreMidQuery: a session checkpointed and restored
// after half its answers finishes with the same result as one that ran
// straight through — for a full-tree strategy and for incr, whose tree is
// only partially built at the checkpoint.
func TestSessionCheckpointRestoreMidQuery(t *testing.T) {
	for _, alg := range []string{engine.AlgT1On, engine.AlgIncr, engine.AlgTBOff} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			ds := testDists(t, 7, 5)
			truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(99)))
			const k, budget = 3, 12

			straight, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: alg, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, straight, &crowd.PerfectOracle{Truth: truth}, 0)
			want := straight.Result()

			s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: alg, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			cr := &crowd.PerfectOracle{Truth: truth}
			half := want.Asked / 2
			for s.Result().Asked < half && !s.State().Terminal() {
				qs, _, err := s.NextQuestions(1)
				if err != nil {
					t.Fatal(err)
				}
				if len(qs) == 0 {
					break
				}
				if err := s.SubmitAnswer(cr.Ask(qs[0])); err != nil {
					t.Fatal(err)
				}
			}

			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Result().Asked != s.Result().Asked {
				t.Fatalf("restored asked = %d, want %d", restored.Result().Asked, s.Result().Asked)
			}
			drive(t, restored, cr, 0)
			got := restored.Result()

			if got.Asked != want.Asked || got.Orderings != want.Orderings || got.Resolved != want.Resolved {
				t.Fatalf("asked/orderings/resolved = %d/%d/%v, want %d/%d/%v",
					got.Asked, got.Orderings, got.Resolved, want.Asked, want.Orderings, want.Resolved)
			}
			for i := range got.Ranking {
				if got.Ranking[i] != want.Ranking[i] {
					t.Fatalf("ranking %v, want %v", got.Ranking, want.Ranking)
				}
			}
			if got.State != want.State {
				t.Fatalf("state = %s, want %s", got.State, want.State)
			}
		})
	}
}

// TestRestoreIsBitExact: a noisy session restored from its asked=0
// checkpoint and fed the same answers as the live one stays byte-identical
// to it after every answer. The checkpoint carries the tree's posteriors
// verbatim, so restore-then-replay follows the live tree's floating-point
// path exactly; a restore that renormalizes drifts by a few ulps, and noisy
// reweights amplify that into a different question choice.
func TestRestoreIsBitExact(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			ds := testDists(t, 10, seed)
			truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(seed)))
			cr, err := crowd.NewUniformPlatform(truth, 1, 0.8, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			live, err := New(Config{Dists: ds, K: 3, Budget: 20, Reliability: 0.8})
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := live.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(&snap, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				var a, b bytes.Buffer
				if err := live.Checkpoint(&a); err != nil {
					t.Fatal(err)
				}
				if err := restored.Checkpoint(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("restored checkpoint diverges from the live one after %d answers", i)
				}
				qs, _, err := live.NextQuestions(1)
				if err != nil {
					t.Fatal(err)
				}
				if len(qs) == 0 {
					break
				}
				ans := cr.Ask(qs[0])
				if err := live.SubmitAnswer(ans); err != nil {
					t.Fatal(err)
				}
				if err := restored.SubmitAnswer(ans); err != nil {
					t.Fatalf("restored copy rejects answer %d: %v", i, err)
				}
			}
		})
	}
}

// TestSessionStateMachine pins lifecycle transitions and the typed errors.
func TestSessionStateMachine(t *testing.T) {
	ds := testDists(t, 5, 2)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(12)))
	s, err := New(Config{Dists: ds, K: 2, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != Created {
		t.Fatalf("initial state = %s, want %s", s.State(), Created)
	}
	// Unknown answers are rejected before any question is issued.
	if err := s.SubmitAnswer(tpo.Answer{Q: tpo.NewQuestion(0, 1), Yes: true}); !errors.Is(err, ErrUnknownQuestion) {
		// The first planned question might be (0,1); in that case pick a
		// question that is certainly not pending.
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	qs, _, err := s.NextQuestions(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("NextQuestions = %v", qs)
	}
	if s.State() != AwaitingAnswers {
		t.Fatalf("state after delivery = %s, want %s", s.State(), AwaitingAnswers)
	}
	// Redelivery returns the same question.
	again, _, err := s.NextQuestions(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0] != qs[0] {
		t.Fatalf("redelivery %v, want %v", again, qs)
	}
	// Answers are accepted in either orientation of the pair.
	a := truth.Correct(qs[0])
	flipped := tpo.Answer{Q: tpo.Question{I: a.Q.J, J: a.Q.I}, Yes: !a.Yes}
	if err := s.SubmitAnswer(flipped); err != nil {
		t.Fatalf("flipped orientation rejected: %v", err)
	}
	// Answering the same question again fails typed.
	if err := s.SubmitAnswer(a); !errors.Is(err, ErrUnknownQuestion) {
		t.Fatalf("duplicate answer error = %v, want ErrUnknownQuestion", err)
	}
	drive(t, s, &crowd.PerfectOracle{Truth: truth}, 0)
	if !s.State().Terminal() {
		t.Fatalf("driven session not terminal: %s", s.State())
	}
	if err := s.SubmitAnswer(a); !errors.Is(err, ErrDone) {
		t.Fatalf("terminal submit error = %v, want ErrDone", err)
	}
	if qs, _, err := s.NextQuestions(5); err != nil || len(qs) != 0 {
		t.Fatalf("terminal NextQuestions = %v, %v", qs, err)
	}
}

// TestSessionZeroBudget: a session with nothing to ask is terminal at
// creation and still reports the prior belief.
func TestSessionZeroBudget(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !s.State().Terminal() {
		t.Fatalf("state = %s, want terminal", s.State())
	}
	res := s.Result()
	if res.Orderings < 1 || len(res.Ranking) == 0 {
		t.Fatalf("prior result unusable: %+v", res)
	}
}

// TestRestoreRejectsMismatches: schema, kind and digest corruption fail with
// typed errors instead of silently mis-resuming.
func TestRestoreRejectsMismatches(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	var mm *MismatchError
	if _, err := Restore(bytes.NewReader([]byte(`{"schema":1,"kind":"other"}`)), nil); !errors.As(err, &mm) || mm.Field != "kind" {
		t.Fatalf("kind mismatch = %v", err)
	}
	bad := bytes.Replace([]byte(good), []byte(`"schema":1`), []byte(`"schema":99`), 1)
	if _, err := Restore(bytes.NewReader(bad), nil); !errors.As(err, &mm) || mm.Field != "schema" {
		t.Fatalf("schema mismatch = %v", err)
	}
	bad = bytes.Replace([]byte(good), []byte(`"digest":"sha256:`), []byte(`"digest":"sha256:00`), 1)
	if _, err := Restore(bytes.NewReader(bad), nil); !errors.As(err, &mm) || mm.Field != "dataset digest" {
		t.Fatalf("digest mismatch = %v", err)
	}
}

// TestRestoreBoundsRNGReplay: a crafted checkpoint with an absurd RNG
// position is rejected with a typed error instead of spinning the CPU
// replaying up to 2^64 draws.
func TestRestoreBoundsRNGReplay(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	env.RNGDraws = math.MaxUint64
	b, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(b), nil); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Fatalf("excessive rng_draws = %v, want ErrInvalidCheckpoint", err)
	}
}

// TestRestoreRejectsPendingOverBudget: a crafted checkpoint whose pending
// list exceeds the remaining budget is rejected — otherwise the restored
// session would accept answers past Budget.
func TestRestoreRejectsPendingOverBudget(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	env.Pending = []pairJSON{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}} // 5 > budget 4
	b, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(b), nil); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Fatalf("pending over budget = %v, want ErrInvalidCheckpoint", err)
	}
}

// TestRestoreCanonicalizesAnswers: a checkpoint carrying answers in
// non-canonical (I > J) orientation restores them flipped along with the
// pair — mirroring SubmitAnswer — so the restored answer log keeps the same
// semantics instead of silently inverting.
func TestRestoreCanonicalizesAnswers(t *testing.T) {
	ds := testDists(t, 5, 2)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(12)))
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := s.NextQuestions(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no questions planned")
	}
	for _, q := range qs {
		if err := s.SubmitAnswer(truth.Correct(q)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Answers) == 0 {
		t.Fatal("checkpoint carries no answers")
	}
	// Rewrite each answer in the opposite orientation with the same
	// semantics: (j, i, !yes) states the same fact as (i, j, yes).
	for i, a := range env.Answers {
		env.Answers[i] = answerJSON{I: a.J, J: a.I, Yes: !a.Yes}
	}
	b, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.answers) != len(s.answers) {
		t.Fatalf("restored %d answers, want %d", len(restored.answers), len(s.answers))
	}
	for i := range s.answers {
		if restored.answers[i] != s.answers[i] {
			t.Fatalf("answer %d = %+v, want %+v", i, restored.answers[i], s.answers[i])
		}
	}
}

// TestSessionSharedPool: sessions created concurrently against one worker
// budget complete correctly (run under -race this also pins the pool's
// concurrency safety).
func TestSessionSharedPool(t *testing.T) {
	pool := par.NewBudget(2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*Result, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, err := dataset.Generate(dataset.Spec{N: 6, Width: 2.0, Seed: int64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(int64(i))))
			s, err := New(Config{Dists: ds, K: 2, Budget: 6, Algorithm: engine.AlgIncr, Pool: pool})
			if err != nil {
				errs[i] = err
				return
			}
			cr := &crowd.PerfectOracle{Truth: truth}
			for {
				qs, _, err := s.NextQuestions(0)
				if err != nil {
					errs[i] = err
					return
				}
				if len(qs) == 0 {
					break
				}
				for _, q := range qs {
					if err := s.SubmitAnswer(cr.Ask(q)); err != nil {
						errs[i] = err
						return
					}
				}
			}
			results[i] = s.Result()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if results[i] == nil || !results[i].State.Terminal() {
			t.Fatalf("session %d did not terminate: %+v", i, results[i])
		}
	}
}

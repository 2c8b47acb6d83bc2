package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/bridge"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/tpo"
)

// shape is the session configuration every session of a workload shares.
type shape struct {
	N, K, Budget int
	// Accuracy is the simulated crowd's chance of answering correctly;
	// Reliability is what the session is told to assume.
	Accuracy, Reliability float64
}

// workload fixes everything about a run except the seed and its length.
type workload struct {
	name  string
	shape shape
	http  bool // HTTP handler front door; otherwise the sdk
	// catalog > 0 rotates sessions through that many datasets; 0 gives
	// every session (warm-up included) a dataset of its own.
	catalog int
	durable bool // file store with fsync=always, closed and reopened per wave
	// rate is about the sessions per second the workload runs at on a
	// 2-vCPU host: a run of s seconds does rate·s sessions, a fixed amount
	// of work however fast the host is.
	rate int
}

// wave is the warm-up size, on the durable workload the number of sessions
// held open together, and the fewest calls a latency block holds.
const wave = 16

// Dataset geometry from the loadgen subcommand: tuple i centred near
// i·spacing, jittered by up to spacing/2, uniform scores of fixed width.
const (
	spacing = 0.5
	width   = 2.0
)

var workloads = []workload{
	{name: "short-catalog", shape: shape{N: 12, K: 3, Budget: 16, Accuracy: 1, Reliability: 1},
		http: true, catalog: 16, rate: 130},
	{name: "short-distinct", shape: shape{N: 12, K: 3, Budget: 16, Accuracy: 1, Reliability: 1},
		http: true, rate: 130},
	{name: "long-noisy-durable", shape: shape{N: 20, K: 5, Budget: 120, Accuracy: 0.8, Reliability: 0.8},
		durable: true, rate: 8},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// script is one session's inputs: its dataset, the world the crowd knows,
// and the seeds of the answer noise and of the session itself.
type script struct {
	Index     int       `json:"index"`
	Dataset   int       `json:"dataset"`
	Truth     []float64 `json:"truth"`
	NoiseSeed int64     `json:"noise_seed"`
	Seed      int64     `json:"seed"`

	body []byte // HTTP create request, encoded before the timed phase
}

// inputs is everything a run feeds the system, generated from the seed
// alone. The program under test receives only these values.
type inputs struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Shape    shape       `json:"shape"`
	Centers  [][]float64 `json:"centers"` // per dataset, per tuple
	Warmup   []script    `json:"warmup"`
	Timed    []script    `json:"timed"`
}

// generate builds the inputs for sessions timed sessions of w.
func generate(w workload, seed int64, sessions int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Workload: w.name, Seed: seed, Shape: w.shape}
	// Datasets come in antithetic pairs: the second of a pair mirrors the
	// first one's jitter. Wide gaps between neighbouring tuples in one are
	// narrow in the other, so the pair's work varies much less from seed to
	// seed than two independent draws would, which matters most for a
	// sixteen-dataset catalog.
	var mirror []float64
	newDataset := func() int {
		c := make([]float64, w.shape.N)
		for i := range c {
			j := (rng.Float64()*2 - 1) * spacing / 2
			if mirror != nil {
				j = -mirror[i]
			}
			c[i] = float64(i)*spacing + j
		}
		if mirror == nil {
			mirror = make([]float64, w.shape.N)
			for i := range c {
				mirror[i] = c[i] - float64(i)*spacing
			}
		} else {
			mirror = nil
		}
		in.Centers = append(in.Centers, c)
		return len(in.Centers) - 1
	}
	for i := 0; i < w.catalog; i++ {
		newDataset()
	}
	mk := func(index int) (script, error) {
		var ds int
		if w.catalog > 0 {
			ds = index % w.catalog
		} else {
			ds = newDataset()
		}
		dists, err := in.dists(ds)
		if err != nil {
			return script{}, err
		}
		truth := crowd.SampleTruth(dists, rand.New(rand.NewSource(rng.Int63())))
		return script{Index: index, Dataset: ds, Truth: truth.Scores, NoiseSeed: rng.Int63(), Seed: rng.Int63()}, nil
	}
	for i := 0; i < wave; i++ {
		sc, err := mk(i)
		if err != nil {
			return nil, err
		}
		in.Warmup = append(in.Warmup, sc)
	}
	for i := 0; i < sessions; i++ {
		sc, err := mk(i)
		if err != nil {
			return nil, err
		}
		in.Timed = append(in.Timed, sc)
	}
	return in, nil
}

// dataset builds a fresh *crowdtopk.Dataset for dataset d. Every call yields
// new distribution values, as decoding a create request does, so no front
// door gets pointer-identity cache hits the HTTP path cannot get.
func (in *inputs) dataset(d int) (*crowdtopk.Dataset, error) {
	scores := make([]crowdtopk.Uncertain, len(in.Centers[d]))
	for i, c := range in.Centers[d] {
		scores[i] = crowdtopk.UniformScore(c, width)
	}
	return crowdtopk.NewDataset(scores)
}

func (in *inputs) dists(d int) ([]dist.Distribution, error) {
	ds, err := in.dataset(d)
	if err != nil {
		return nil, err
	}
	return bridge.DatasetDists(ds), nil
}

// encodeBodies encodes every HTTP create request ahead of the timed phase,
// so the client does not spend the run re-encoding datasets.
func (in *inputs) encodeBodies() error {
	for _, scs := range [][]script{in.Warmup, in.Timed} {
		for i := range scs {
			dists, err := in.dists(scs[i].Dataset)
			if err != nil {
				return err
			}
			specs, err := dataset.SpecsOf(dists)
			if err != nil {
				return err
			}
			scs[i].body, err = json.Marshal(map[string]any{
				"tuples":      specs,
				"k":           in.Shape.K,
				"budget":      in.Shape.Budget,
				"reliability": in.Shape.Reliability,
				"seed":        scs[i].Seed,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// crowdFor answers questions about sc's world with the workload's accuracy.
// The noise stream is per session, so a session's answers do not depend on
// which client ran it or when.
type crowdFor struct {
	truth    *crowd.GroundTruth
	rng      *rand.Rand
	accuracy float64
}

func newCrowd(sc *script, accuracy float64) *crowdFor {
	return &crowdFor{
		truth:    crowd.TruthFromScores(sc.Truth),
		rng:      rand.New(rand.NewSource(sc.NoiseSeed)),
		accuracy: accuracy,
	}
}

func (c *crowdFor) answer(q pair) answer {
	yes := c.truth.Correct(tpo.Question{I: q.I, J: q.J}).Yes
	if c.rng.Float64() >= c.accuracy {
		yes = !yes
	}
	return answer{I: q.I, J: q.J, Yes: yes}
}

// topK is the true top-K prefix of sc's world.
func (c *crowdFor) topK(k int) []int { return c.truth.TopK(k) }

type pair struct {
	I int `json:"i"`
	J int `json:"j"`
}

type answer struct {
	I   int  `json:"i"`
	J   int  `json:"j"`
	Yes bool `json:"yes"`
}

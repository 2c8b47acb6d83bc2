package sdk_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	crowdtopk "crowdtopk"
	"crowdtopk/sdk"
)

// registryRecord is the test's ledger for one session id. mu serializes the
// writers (answers and the delete) on the id; readers go through the client
// without it, so they race the writers, the janitor's evictions and each
// other's hydrations.
type registryRecord struct {
	id      string
	mu      sync.Mutex
	acked   int  // answers the client acknowledged
	deleted bool // Delete returned nil
}

// TestEvictionRegistryRandomized interleaves create, answer, read, delete,
// TTL eviction and lazy hydration from several goroutines against a file
// store, and checks the registry never loses or forks a session:
//
//   - each acknowledged answer reports exactly one more answer than the
//     previous acknowledgement for the id, so the resident copy always holds
//     every acked answer (a second resident copy, or an eviction that let a
//     held session go, would re-count from an older state);
//   - concurrent reads never see fewer answers than were acked before they
//     started, nor more than one in flight;
//   - after close and reopen, the durable copy of every surviving id holds
//     exactly the acked answers, and deleted ids stay deleted.
func TestEvictionRegistryRandomized(t *testing.T) {
	const (
		workers = 4
		ops     = 200
		ttl     = 2 * time.Millisecond
	)
	dir := t.TempDir()
	client, err := sdk.New(sdk.Options{TTL: ttl, Storage: &sdk.Storage{Dir: dir, Fsync: "none"}})
	if err != nil {
		t.Fatal(err)
	}
	centers := []float64{1.0, 1.3, 1.6, 1.9, 2.2, 2.5, 2.8}
	scores := make([]crowdtopk.Uncertain, len(centers))
	for i, c := range centers {
		scores[i] = crowdtopk.UniformScore(c, 1.6)
	}
	ds, err := crowdtopk.NewDataset(scores)
	if err != nil {
		t.Fatal(err)
	}
	// The truth ranks by center, so answers never contradict each other.
	truth := func(q sdk.Question) crowdtopk.Answer {
		return crowdtopk.Answer{Q: crowdtopk.Question{I: q.I, J: q.J}, Yes: centers[q.I] > centers[q.J]}
	}

	var (
		regMu sync.Mutex
		recs  []*registryRecord
	)
	create := func() error {
		info, err := client.CreateSession(sdk.SessionConfig{
			Dataset: ds,
			Query:   crowdtopk.Query{K: 3, Budget: 12},
		})
		if err != nil {
			return err
		}
		regMu.Lock()
		recs = append(recs, &registryRecord{id: info.ID})
		regMu.Unlock()
		return nil
	}
	pick := func(rng *rand.Rand) *registryRecord {
		regMu.Lock()
		defer regMu.Unlock()
		return recs[rng.Intn(len(recs))]
	}
	// notFoundOK reports whether ErrNotFound is a legitimate answer for r:
	// only once its delete has completed (writers hold r.mu across it).
	notFoundOK := func(r *registryRecord) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.deleted
	}

	for i := 0; i < workers; i++ {
		if err := create(); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			fail := func(err error) { errc <- err }
			for op := 0; op < ops; op++ {
				r := pick(rng)
				switch p := rng.Intn(100); {
				case p < 8:
					if err := create(); err != nil {
						fail(err)
						return
					}
				case p < 12:
					r.mu.Lock()
					if !r.deleted {
						if err := client.Delete(r.id); err != nil {
							r.mu.Unlock()
							fail(err)
							return
						}
						r.deleted = true
					}
					r.mu.Unlock()
				case p < 62:
					r.mu.Lock()
					err := answerOne(client, r, truth)
					r.mu.Unlock()
					if err != nil {
						fail(err)
						return
					}
				case p < 80:
					r.mu.Lock()
					lo := r.acked
					r.mu.Unlock()
					res, err := client.Result(r.id)
					if errors.Is(err, sdk.ErrNotFound) && notFoundOK(r) {
						continue
					}
					if err != nil {
						fail(err)
						return
					}
					r.mu.Lock()
					hi := r.acked + 1 // at most one answer in flight
					r.mu.Unlock()
					if res.Asked < lo || res.Asked > hi {
						fail(fmt.Errorf("%s: read sees %d answers, acked range is [%d, %d]", r.id, res.Asked, lo, hi))
						return
					}
				case p < 90:
					err := client.Checkpoint(r.id, io.Discard)
					if errors.Is(err, sdk.ErrNotFound) && notFoundOK(r) {
						continue
					}
					if err != nil {
						fail(err)
						return
					}
				default:
					time.Sleep(time.Duration(2+rng.Intn(3)) * ttl) // let the janitor evict
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		client.Close()
		return
	}
	st := client.Stats().Store
	if st.EvictionsToDisk == 0 || st.HydrationHits == 0 {
		t.Errorf("run exercised too little: %d evictions, %d hydrations", st.EvictionsToDisk, st.HydrationHits)
	}
	client.Close()

	reopened, err := sdk.New(sdk.Options{Storage: &sdk.Storage{Dir: dir, Fsync: "none"}})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, r := range recs {
		res, err := reopened.Result(r.id)
		if r.deleted {
			if !errors.Is(err, sdk.ErrNotFound) {
				t.Errorf("deleted %s came back: %v", r.id, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", r.id, err)
			continue
		}
		if res.Asked != r.acked {
			t.Errorf("%s: durable copy holds %d answers, %d were acked", r.id, res.Asked, r.acked)
		}
	}
}

// answerOne answers the next pending question of r, if any, and checks the
// acknowledgement against r's ledger. The caller holds r.mu.
func answerOne(client *sdk.Client, r *registryRecord, truth func(sdk.Question) crowdtopk.Answer) error {
	if r.deleted {
		return nil
	}
	qs, err := client.Questions(r.id, 1)
	if err != nil {
		return err
	}
	if len(qs.Questions) == 0 {
		return nil
	}
	ack, err := client.SubmitAnswers(r.id, truth(qs.Questions[0]))
	if err != nil {
		return err
	}
	if ack.Asked != r.acked+1 {
		return fmt.Errorf("%s: ack reports %d answers after %d were acked (a lost or forked answer)", r.id, ack.Asked, r.acked)
	}
	r.acked++
	return nil
}

package service

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// storeTestSession builds a small session directly (no HTTP) for white-box
// store tests.
func storeTestSession(t *testing.T) *session.Session {
	t.Helper()
	ds := make([]dist.Distribution, 5)
	for i := range ds {
		u, err := dist.NewUniformAround(float64(i)*0.5, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	s, err := session.New(session.Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newDiskStore builds a store over a file backend with a TTL long enough
// that the janitor never interferes; tests drive eviction explicitly.
func newDiskStore(t *testing.T) *store {
	t.Helper()
	disk, err := persist.NewFile(persist.FileOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStore(time.Minute, 0, disk, obs.NopLogger(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	return st
}

// TestEvictionRefusedForPinnedSession pins the held-session rule: an
// operation that got a session keeps it resident until it releases it, so an
// answer accepted mid-operation lands on the registered object and reaches
// the durable backend.
func TestEvictionRefusedForPinnedSession(t *testing.T) {
	st := newDiskStore(t)
	id, err := st.add(storeTestSession(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := sess.NextQuestions(1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("no question issued (err %v)", err)
	}
	st.flush()
	st.evictToDisk(id, time.Now().Add(time.Hour))
	if n := st.len(); n != 1 {
		t.Fatalf("held session evicted: %d resident", n)
	}
	if err := sess.SubmitAnswer(tpo.Answer{Q: qs[0], Yes: true}); err != nil {
		t.Fatal(err)
	}
	st.release(id)
	// The answer is durable: a restore from the backend sees it.
	st.flush()
	re, err := st.disk.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Status().Asked, sess.Status().Asked; got != want || want == 0 {
		t.Fatalf("restored session has %d answers, held one has %d", got, want)
	}
	// Released, clean and idle: now it may go.
	st.evictToDisk(id, time.Now().Add(time.Hour))
	if n := st.len(); n != 0 {
		t.Fatalf("released session not evicted: %d resident", n)
	}
}

// TestEvictionRefusedForPinnedHydration covers the hydration path: a get on
// a disk-only session makes a fresh object resident and pinned, eviction
// leaves it alone until release, and later gets return that same object
// rather than a second copy.
func TestEvictionRefusedForPinnedHydration(t *testing.T) {
	st := newDiskStore(t)
	sess := storeTestSession(t)
	id, err := st.add(sess)
	if err != nil {
		t.Fatal(err)
	}
	st.flush()
	st.evictToDisk(id, time.Now().Add(time.Hour))
	if n := st.len(); n != 0 {
		t.Fatalf("session not evicted: %d resident", n)
	}
	cur, err := st.get(context.Background(), id) // lazy hydration
	if err != nil {
		t.Fatal(err)
	}
	if cur == sess {
		t.Fatal("hydration returned the evicted object")
	}
	st.evictToDisk(id, time.Now().Add(time.Hour))
	if n := st.len(); n != 1 {
		t.Fatalf("held hydrated session evicted: %d resident", n)
	}
	qs, _, err := cur.NextQuestions(1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("no question issued (err %v)", err)
	}
	if err := cur.SubmitAnswer(tpo.Answer{Q: qs[0], Yes: true}); err != nil {
		t.Fatal(err)
	}
	st.release(id)
	again, err := st.get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	st.release(id)
	if again != cur {
		t.Fatal("second get returned a different object for the same id")
	}
	st.flush()
	re, err := st.disk.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Status().Asked; got != 1 {
		t.Fatalf("durable copy has %d answers, want 1 (the acked answer was lost)", got)
	}
}

// TestHydrationIsBitExact: a noisy session evicted after its initial
// snapshot and re-hydrated before every answer (snapshot plus WAL replay)
// stays byte-identical to a copy that never left memory.
func TestHydrationIsBitExact(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ds, err := dataset.Generate(dataset.Spec{N: 10, Width: 2.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(seed)))
		cr, err := crowd.NewUniformPlatform(truth, 1, 0.8, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		live, err := session.New(session.Config{Dists: ds, K: 3, Budget: 20, Reliability: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		st := newDiskStore(t)
		id, err := st.add(live)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			// Hand the registry's object back to disk; live stays in memory.
			st.flush()
			st.evictToDisk(id, time.Now().Add(time.Hour))
			if n := st.len(); n != 0 {
				t.Fatalf("seed %d: session not evicted: %d resident", seed, n)
			}
			hyd, err := st.get(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := live.Checkpoint(&a); err != nil {
				t.Fatal(err)
			}
			if err := hyd.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d: hydrated session diverges from the live one after %d answers", seed, i)
			}
			qs, _, err := live.NextQuestions(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) == 0 {
				st.release(id)
				break
			}
			ans := cr.Ask(qs[0])
			if err := live.SubmitAnswer(ans); err != nil {
				t.Fatal(err)
			}
			if err := hyd.SubmitAnswer(ans); err != nil {
				t.Fatalf("seed %d: hydrated session rejects answer %d: %v", seed, i, err)
			}
			st.release(id)
		}
	}
}

// TestListRowsInternallyConsistent pins the listing snapshot semantics: each
// row is a copy of the entry taken under the store lock, so a concurrent
// delete cannot strip an already-captured row of its session.
func TestListRowsInternallyConsistent(t *testing.T) {
	st, err := newStore(time.Minute, 0, nil, obs.NopLogger(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	sess := storeTestSession(t)
	id, err := st.add(sess)
	if err != nil {
		t.Fatal(err)
	}

	items, total := st.list(0)
	if total != 1 || len(items) != 1 || items[0].sess != sess {
		t.Fatalf("live row not captured: total %d, items %+v", total, items)
	}

	// A delete after the snapshot cannot invalidate a captured row: the
	// handler can still read consistent state off it.
	items, _ = st.list(0)
	var row entry
	for _, it := range items {
		if it.id == id {
			row = it
		}
	}
	st.remove(id)
	if row.sess == nil {
		t.Fatal("captured row lost its session")
	}
	if got := row.sess.Status(); got.Asked != 0 {
		t.Fatalf("captured row state inconsistent: %+v", got)
	}
}

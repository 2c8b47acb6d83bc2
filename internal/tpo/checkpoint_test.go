package tpo

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"crowdtopk/internal/dist"
)

// ulpClose compares leaf weights across a checkpoint boundary: snapshot
// weights are normalized while in-tree posteriors are only nearly so, which
// leaves ulp-level differences that never affect rankings or selections.
func ulpClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), 1e-300)
}

func checkpointDists(t *testing.T, n int) []dist.Distribution {
	t.Helper()
	ds := make([]dist.Distribution, n)
	for i := range ds {
		u, err := dist.NewUniformAround(1+0.3*float64(i), 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	return ds
}

// TestCheckpointRoundTrip: envelope → ReadCheckpoint reproduces the leaf set
// exactly (paths, order and weights), and the digest is enforced.
func TestCheckpointRoundTrip(t *testing.T) {
	ds := checkpointDists(t, 6)
	tree, err := Build(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	var buf bytes.Buffer
	const digest = "sha256:feedface"
	if err := ls.WriteCheckpoint(&buf, digest); err != nil {
		t.Fatal(err)
	}

	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != ls.K || got.Len() != ls.Len() {
		t.Fatalf("restored K=%d len=%d, want K=%d len=%d", got.K, got.Len(), ls.K, ls.Len())
	}
	for i := range ls.Paths {
		if got.W[i] != ls.W[i] {
			t.Fatalf("leaf %d weight drift: %v vs %v", i, got.W[i], ls.W[i])
		}
		for d := range ls.Paths[i] {
			if got.Paths[i][d] != ls.Paths[i][d] {
				t.Fatalf("leaf %d path drift: %v vs %v", i, got.Paths[i], ls.Paths[i])
			}
		}
	}

	// Digest mismatch: typed error naming the field.
	_, err = ReadCheckpoint(bytes.NewReader(buf.Bytes()), "sha256:other")
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "dataset digest" {
		t.Fatalf("digest mismatch error = %v, want *MismatchError on dataset digest", err)
	}
	// Empty expectation skips the digest check (caller opted out).
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), ""); err != nil {
		t.Fatalf("digest check opt-out failed: %v", err)
	}
}

func TestCheckpointRejectsForeignPayloads(t *testing.T) {
	// Wrong kind.
	_, err := ReadCheckpoint(strings.NewReader(`{"schema":1,"kind":"other","leaves":{}}`), "")
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "kind" {
		t.Fatalf("kind mismatch error = %v", err)
	}
	// Future schema.
	_, err = ReadCheckpoint(strings.NewReader(`{"schema":99,"kind":"crowdtopk/leafset","leaves":{}}`), "")
	if !errors.As(err, &mm) || mm.Field != "schema" {
		t.Fatalf("schema mismatch error = %v", err)
	}
	// A bare WriteJSON payload (no envelope) must be rejected, not silently
	// mis-restored.
	ds := checkpointDists(t, 4)
	tree, err := Build(ds, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if err := tree.LeafSet().WriteJSON(&bare); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&bare, ""); err == nil {
		t.Fatal("bare leaf-set JSON accepted as a checkpoint")
	}
}

// TestFromLeafSet: a tree rebuilt from a snapshot enumerates the identical
// leaf set and behaves identically under pruning and extension.
func TestFromLeafSet(t *testing.T) {
	ds := checkpointDists(t, 6)
	orig, err := Build(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Condition the original a little so weights are non-uniformly scaled.
	if err := orig.Prune(Answer{Q: NewQuestion(0, 5), Yes: false}); err != nil {
		t.Fatal(err)
	}
	ls := orig.LeafSet()

	restored, err := FromLeafSet(ds, 3, ls, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	rls := restored.LeafSet()
	if rls.Len() != ls.Len() || rls.K != ls.K {
		t.Fatalf("restored leaf set %d@%d, want %d@%d", rls.Len(), rls.K, ls.Len(), ls.K)
	}
	for i := range ls.Paths {
		if rls.W[i] != ls.W[i] {
			t.Fatalf("leaf %d: weight %v vs %v", i, rls.W[i], ls.W[i])
		}
		for d := range ls.Paths[i] {
			if rls.Paths[i][d] != ls.Paths[i][d] {
				t.Fatalf("leaf %d: path order not preserved: %v vs %v", i, rls.Paths[i], ls.Paths[i])
			}
		}
	}

	// Same future: prune both with the same answer and compare exactly.
	a := Answer{Q: NewQuestion(2, 4), Yes: true}
	if err := orig.Prune(a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Prune(a); err != nil {
		t.Fatal(err)
	}
	ols, rls2 := orig.LeafSet(), restored.LeafSet()
	if ols.Len() != rls2.Len() {
		t.Fatalf("post-prune leaf counts diverge: %d vs %d", ols.Len(), rls2.Len())
	}
	for i := range ols.W {
		if !ulpClose(ols.W[i], rls2.W[i]) {
			t.Fatalf("post-prune leaf %d: weight %v vs %v", i, ols.W[i], rls2.W[i])
		}
	}
}

// TestFromLeafSetExtends: a partially built (incr) tree restored from its
// snapshot extends to the same next level as the original.
func TestFromLeafSetExtends(t *testing.T) {
	ds := checkpointDists(t, 6)
	orig, err := StartIncremental(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Extend(); err != nil { // depth 2 of 3
		t.Fatal(err)
	}
	ls := orig.LeafSet()
	restored, err := FromLeafSet(ds, 3, ls, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Depth() != 2 {
		t.Fatalf("restored depth = %d, want 2", restored.Depth())
	}
	if err := orig.Extend(); err != nil {
		t.Fatal(err)
	}
	if err := restored.Extend(); err != nil {
		t.Fatal(err)
	}
	ols, rls := orig.LeafSet(), restored.LeafSet()
	if ols.Len() != rls.Len() {
		t.Fatalf("extended leaf counts diverge: %d vs %d", ols.Len(), rls.Len())
	}
	for i := range ols.W {
		if !ulpClose(ols.W[i], rls.W[i]) {
			t.Fatalf("extended leaf %d: weight %v vs %v", i, ols.W[i], rls.W[i])
		}
		for d := range ols.Paths[i] {
			if ols.Paths[i][d] != rls.Paths[i][d] {
				t.Fatalf("extended leaf %d: path %v vs %v", i, ols.Paths[i], rls.Paths[i])
			}
		}
	}
}

func TestFromLeafSetRejectsBadInput(t *testing.T) {
	ds := checkpointDists(t, 4)
	tree, err := Build(ds, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	if _, err := FromLeafSet(ds, 2, &LeafSet{K: 2}, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty leaf set: %v", err)
	}
	if _, err := FromLeafSet(ds, 1, ls, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("depth beyond K: %v", err)
	}
	bad := ls.Clone()
	bad.Paths[0][0] = 99
	if _, err := FromLeafSet(ds, 2, bad, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("out-of-range tuple id: %v", err)
	}
}

// TestFromLeafSetKeepsPosteriors: a tree rebuilt from its own Posteriors
// snapshot after a noisy reweight holds the identical posteriors, bit for
// bit, and stays identical under the next reweight; leaf sets without
// positive mass are rejected.
func TestFromLeafSetKeepsPosteriors(t *testing.T) {
	// Eight tuples: after this reweight the leaf mass is 1+2⁻⁵², so a
	// restore that rescales would move every posterior.
	ds := checkpointDists(t, 8)
	orig, err := Build(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Reweight(Answer{Q: NewQuestion(1, 4), Yes: true}, 0.8); err != nil {
		t.Fatal(err)
	}
	restored, err := FromLeafSet(ds, 3, orig.Posteriors(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	a := Answer{Q: NewQuestion(0, 3), Yes: false}
	for step := 0; step < 2; step++ {
		ow, rw := orig.Posteriors().W, restored.Posteriors().W
		if len(ow) != len(rw) {
			t.Fatalf("step %d: %d leaves vs %d", step, len(ow), len(rw))
		}
		for i := range ow {
			if ow[i] != rw[i] {
				t.Fatalf("step %d: leaf %d posterior %v vs %v", step, i, ow[i], rw[i])
			}
		}
		if err := orig.Reweight(a, 0.8); err != nil {
			t.Fatal(err)
		}
		if err := restored.Reweight(a, 0.8); err != nil {
			t.Fatal(err)
		}
	}

	for _, w := range []float64{0, math.NaN()} {
		bad := orig.Posteriors()
		for i := range bad.W {
			bad.W[i] = w
		}
		if _, err := FromLeafSet(ds, 3, bad, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("weights all %v: %v, want ErrInvalidInput", w, err)
		}
	}
}

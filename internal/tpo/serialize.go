package tpo

import (
	"encoding/json"
	"fmt"
	"io"

	"crowdtopk/internal/rank"
)

// leafSetJSON is the stable on-disk form of a LeafSet.
type leafSetJSON struct {
	K     int       `json:"k"`
	Paths [][]int   `json:"paths"`
	W     []float64 `json:"weights"`
}

// WriteJSON serializes the leaf set (the complete posterior over top-K
// orderings) for consumption by external tooling — plotting, audits, or
// resuming an uncertainty-reduction session in another process.
func (ls *LeafSet) WriteJSON(w io.Writer) error {
	out := leafSetJSON{K: ls.K, Paths: make([][]int, ls.Len()), W: ls.W}
	for i, p := range ls.Paths {
		out.Paths[i] = p
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadLeafSetJSON loads a leaf set written by WriteJSON, validating that
// weights are non-negative, paths are duplicate-free and lengths agree.
// Weights come back exactly as written, not renormalized.
func ReadLeafSetJSON(r io.Reader) (*LeafSet, error) {
	var in leafSetJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("tpo: decoding leaf set: %w", err)
	}
	if len(in.Paths) != len(in.W) {
		return nil, fmt.Errorf("%w: %d paths but %d weights", ErrInvalidInput, len(in.Paths), len(in.W))
	}
	ls := &LeafSet{K: in.K}
	for i, p := range in.Paths {
		if len(p) > in.K {
			return nil, fmt.Errorf("%w: path %d longer than K=%d", ErrInvalidInput, i, in.K)
		}
		seen := make(map[int]bool, len(p))
		for _, id := range p {
			if id < 0 {
				return nil, fmt.Errorf("%w: negative tuple id in path %d", ErrInvalidInput, i)
			}
			if seen[id] {
				return nil, fmt.Errorf("%w: duplicate tuple %d in path %d", ErrInvalidInput, id, i)
			}
			seen[id] = true
		}
		if in.W[i] < 0 {
			return nil, fmt.Errorf("%w: negative weight at %d", ErrInvalidInput, i)
		}
		ls.Paths = append(ls.Paths, rank.Ordering(p))
		ls.W = append(ls.W, in.W[i])
	}
	return ls, nil
}

package persist

import (
	"hash/fnv"
	"sort"
	"sync"

	"crowdtopk/internal/session"
)

// memShards is the fixed shard count of the in-memory store.
const memShards = 32

// Memory is a sharded in-memory Store: the fake backend the torture and
// fault tests wrap when they exercise the Store contract without touching
// the filesystem. Nothing survives the process. All methods are safe for
// concurrent use.
type Memory struct {
	shards [memShards]memShard
	closed sync.Once
	dead   chan struct{}
}

type memShard struct {
	mu sync.RWMutex
	m  map[string]*session.Session
}

// NewMemory returns an empty sharded in-memory store.
func NewMemory() *Memory {
	s := &Memory{dead: make(chan struct{})}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*session.Session)
	}
	return s
}

func (s *Memory) shard(id string) *memShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &s.shards[h.Sum32()%memShards]
}

func (s *Memory) isClosed() bool {
	select {
	case <-s.dead:
		return true
	default:
		return false
	}
}

// Put stores (or replaces) the session under id.
func (s *Memory) Put(id string, sess *session.Session) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if s.isClosed() {
		return ErrClosed
	}
	sh := s.shard(id)
	sh.mu.Lock()
	sh.m[id] = sess
	sh.mu.Unlock()
	return nil
}

// Get returns the stored session.
func (s *Memory) Get(id string) (*session.Session, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	sh := s.shard(id)
	sh.mu.RLock()
	sess, ok := sh.m[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return sess, nil
}

// Delete removes the session.
func (s *Memory) Delete(id string) error {
	if s.isClosed() {
		return ErrClosed
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[id]; !ok {
		return ErrNotFound
	}
	delete(sh.m, id)
	return nil
}

// List returns all stored ids, sorted.
func (s *Memory) List() ([]string, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids, nil
}

// Len reports the number of stored sessions.
func (s *Memory) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Flush is a no-op: memory is always current.
func (s *Memory) Flush() error { return nil }

// Close drops every session and marks the store unusable. Idempotent.
func (s *Memory) Close() error {
	s.closed.Do(func() {
		close(s.dead)
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.m = make(map[string]*session.Session)
			sh.mu.Unlock()
		}
	})
	return nil
}

// Package persist gives query sessions a durable, pluggable home. The
// serving layer (internal/service) holds live sessions in memory; a Store is
// where they go to survive idle eviction, graceful shutdowns and crashes.
//
// File is the production backend: one directory per session holding a
// periodic full snapshot (the session checkpoint envelope from
// internal/session, reused verbatim) plus an append-only, CRC-framed
// write-ahead log of the answers accepted since that snapshot. Put appends
// the answer delta and compacts into a fresh snapshot every SnapshotEvery
// answers; Get restores the snapshot and replays the WAL tail through the
// session's own SubmitAnswer transition, so a recovered session is
// indistinguishable from one that never went down. A torn final record (the
// crash landed mid-append) is dropped and the log truncated; corruption
// anywhere else fails loudly with a *CorruptError. FaultStore wraps any
// Store with injected failures for robustness tests.
//
// The design follows the usual WAL discipline (etcd's wal, OPA's disk
// store): length+CRC framing per record, monotonically increasing sequence
// numbers so replay after a half-finished compaction is idempotent, atomic
// snapshot replacement via rename, and an fsync policy the operator chooses
// (durability per answer vs. throughput).
package persist

import (
	"errors"
	"fmt"
	"sync/atomic"

	"crowdtopk/internal/session"
)

// ErrNotFound reports a session id the store holds nothing for.
var ErrNotFound = errors.New("persist: session not found")

// ErrCorrupt is the errors.Is target for any on-disk state that cannot be
// trusted: a WAL record failing its CRC with intact data after it, an
// undecodable snapshot, a snapshot whose dataset digest does not match, or a
// replay the session itself rejects. Inspect the *CorruptError for details.
var ErrCorrupt = errors.New("persist: corrupt session data")

// ErrInvalidID reports a session id unusable as a storage key (empty, too
// long, or containing characters outside [A-Za-z0-9._-]).
var ErrInvalidID = errors.New("persist: invalid session id")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("persist: store closed")

// CorruptError wraps the cause of a corruption verdict with where it was
// found. errors.Is(err, ErrCorrupt) matches it; errors.As exposes the path.
type CorruptError struct {
	ID   string // session id
	Path string // offending file
	Err  error  // underlying cause
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: session %s: corrupt data in %s: %v", e.ID, e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Store is a durable (or at least authoritative) home for sessions. The
// serving layer treats its in-memory table as a cache over one of these.
//
// Implementations must be safe for concurrent use. Put with the same id must
// be cheap when called repeatedly: the file backend appends only the answers
// accepted since the previous Put and snapshots periodically.
type Store interface {
	// Put records the session's current state under id, replacing or
	// extending whatever the store already holds for it.
	Put(id string, sess *session.Session) error
	// Get rebuilds the stored session. It returns ErrNotFound when the
	// store holds nothing for id and an error matching ErrCorrupt when it
	// holds something it cannot trust.
	Get(id string) (*session.Session, error)
	// Delete removes every trace of the session. Deleting an unknown id
	// returns ErrNotFound.
	Delete(id string) error
	// List returns the ids of all stored sessions, sorted.
	List() ([]string, error)
	// Flush makes every accepted Put durable (fsync under lenient sync
	// policies). It is a no-op for stores that are always current.
	Flush() error
	// Close flushes and releases resources. The store is unusable after.
	Close() error
}

// CounterSource is implemented by backends that track persistence activity;
// the serving layer surfaces these in GET /v1/stats.
type CounterSource interface {
	Counters() CounterSnapshot
}

// CounterSnapshot is a point-in-time read of a backend's activity counters,
// in the wire form /v1/stats embeds.
type CounterSnapshot struct {
	// Snapshots counts full checkpoint envelopes written (initial writes
	// and compactions).
	Snapshots uint64 `json:"snapshots"`
	// WALAppends counts answer records appended to write-ahead logs.
	WALAppends uint64 `json:"wal_appends"`
	// Replays counts WAL records replayed through SubmitAnswer during Get.
	Replays uint64 `json:"replays"`
	// RecoveredSessions counts sessions successfully rebuilt by Get.
	RecoveredSessions uint64 `json:"recovered_sessions"`
	// Fsyncs counts File.Sync calls (WAL appends under SyncAlways,
	// snapshot writes, directory syncs, flushes).
	Fsyncs uint64 `json:"fsyncs"`
	// TornTails counts recoveries that dropped a torn trailing WAL record.
	TornTails uint64 `json:"torn_wal_tails"`
	// Quarantines counts session directories moved to the quarantine area
	// because their on-disk state could not be trusted.
	Quarantines uint64 `json:"quarantines"`
}

// counters is the shared atomic implementation behind CounterSnapshot.
type counters struct {
	snapshots, walAppends, replays, recovered, fsyncs, tornTails, quarantines atomic.Uint64
}

func (c *counters) snapshot() CounterSnapshot {
	return CounterSnapshot{
		Snapshots:         c.snapshots.Load(),
		WALAppends:        c.walAppends.Load(),
		Replays:           c.replays.Load(),
		RecoveredSessions: c.recovered.Load(),
		Fsyncs:            c.fsyncs.Load(),
		TornTails:         c.tornTails.Load(),
		Quarantines:       c.quarantines.Load(),
	}
}

// maxIDLen bounds storage keys; server ids are 34 bytes ("s_" + 32 hex).
const maxIDLen = 128

// ValidateID rejects ids unusable as storage keys. The file backend maps the
// id straight to a directory name, so the character set is restricted to
// names that cannot traverse, hide, or collide across platforms.
func ValidateID(id string) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	if id[0] == '.' {
		return fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %q", ErrInvalidID, id)
		}
	}
	return nil
}

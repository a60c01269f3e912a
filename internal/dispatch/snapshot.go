package dispatch

import (
	"fmt"

	"sapsim/internal/sim"
)

// SnapshotRecord is the journaled pointer to a mid-run engine snapshot.
// The snapshot body itself — the versioned, digest-stamped wire form
// sapsim.EncodeSnapshotBytes produces — lives in the content-addressed
// store under Digest, exactly like an artifact body; the record binds the
// blob to its cell and capture instant. A re-booked cell warm-resumes
// from the newest intact snapshot, skipping everything up to At; when the
// blob is missing or damaged the cell falls back to a cold t=0 restart,
// rebuilt from the Spec in the journal header, never to a failure. Every
// engine draw derives from the seed, so the cold re-run reaches the same
// state — the snapshot only saves the replayed prefix. Its loss is cheap,
// and the queue journals it with a plain append rather than an fsync.
type SnapshotRecord struct {
	// Format is FormatVersion at record time; Validate rejects mismatches
	// before a version-skewed worker's pointer reaches the journal.
	Format int
	// At is the simulated instant the snapshot captures.
	At sim.Time
	// Digest is the blob's SHA-256 address in the store.
	Digest string
}

// NewSnapshotRecord stamps a snapshot pointer with the current format.
func NewSnapshotRecord(at sim.Time, digest string) SnapshotRecord {
	return SnapshotRecord{Format: FormatVersion, At: at, Digest: digest}
}

// Validate rejects records from a different format version or without a
// usable blob address. It gates Queue.RecordSnapshot and journal replay.
func (r SnapshotRecord) Validate() error {
	if r.Format != FormatVersion {
		return fmt.Errorf("dispatch: snapshot record format %d, want %d", r.Format, FormatVersion)
	}
	if r.Digest == "" {
		return fmt.Errorf("dispatch: snapshot record missing blob digest")
	}
	if r.At <= 0 {
		return fmt.Errorf("dispatch: snapshot record at %v", r.At)
	}
	return nil
}

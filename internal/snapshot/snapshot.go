// Package snapshot defines the versioned, digest-stamped serialization of
// complete mid-run engine state: the discrete-event queue (as rearmable
// owner/payload records), every RNG stream, the fleet and inventory-mirror
// overlays, counters, the event log, and the telemetry store.
//
// A snapshot is pure data — no function values, no pointers into the live
// simulation — so it serializes with encoding/gob behind a small framed
// header. Restoring is the inverse overlay performed by
// core.RestoreSimulation: the simulation is re-assembled from the
// configuration exactly as at t=0 (the workload generator is deterministic,
// so regenerating the instance sequence reproduces the arrival plan
// bit-for-bit), then the snapshot overlays the dynamic state and the engine
// queue is re-armed through the rearmer table keyed by each event's owner.
// The restored run continues bit-identically to the uninterrupted one.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"sapsim/internal/events"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// FormatVersion is bumped whenever the serialized layout changes
// incompatibly; Decode rejects snapshots from other versions. v2 encodes
// every map as a key-sorted SortedMap.
const FormatVersion = 2

// magic frames a snapshot stream. The trailing byte is the format version's
// low byte so even pre-header readers fail loudly on a version mismatch.
var magic = [8]byte{'S', 'A', 'P', 'S', 'N', 'A', 'P', FormatVersion}

// VMState is the dynamic overlay for one arrived workload instance. The
// static side (ID, project, profile, creation time, planned lifetime) is
// regenerated from the seed; only what the run mutated is recorded.
type VMState struct {
	// Flavor is the VM's current flavor name (differs from the generated
	// one after a resize).
	Flavor string
	// State is the vmmodel.State ordinal.
	State int
	// Node is the resident node ID, empty when unplaced (failed placement,
	// lost to a failed evacuation, or deleted).
	Node string
	// Live marks membership in the live set (a pending deletion event may
	// still reference a lost VM, which is not live).
	Live       bool
	PlacedAt   sim.Time
	DeletedAt  sim.Time
	Migrations int
}

// Counters carries the run's scalar accumulators.
type Counters struct {
	PlacementFailures int
	Resizes           int
	DRSMigrations     int
	DRSPasses         int
	CrossBBMoves      int
}

// SchedulerState carries the Nova scheduler's counters and its decision
// inputs that persist across placements.
type SchedulerState struct {
	Scheduled  int
	Failed     int
	Retries    int
	Eliminated SortedMap[int]
	// Contention is the per-BB contention view fed by the sampler
	// (Config.ContentionFeed), keyed by building-block ID.
	Contention SortedMap[float64]
}

// SortedMap is a string-keyed map that gob-encodes its entries in key
// order. gob writes plain maps in iteration order, which would make two
// captures of the same state encode to different bytes — and defeat the
// content-addressed dedup of snapshot blobs.
type SortedMap[V any] map[string]V

type sortedEntry[V any] struct {
	Key string
	Val V
}

// GobEncode implements gob.GobEncoder.
func (m SortedMap[V]) GobEncode() ([]byte, error) {
	entries := make([]sortedEntry[V], 0, len(m))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		entries = append(entries, sortedEntry[V]{k, m[k]})
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(entries)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *SortedMap[V]) GobDecode(b []byte) error {
	var entries []sortedEntry[V]
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&entries); err != nil {
		return err
	}
	*m = make(SortedMap[V], len(entries))
	for _, e := range entries {
		(*m)[e.Key] = e.Val
	}
	return nil
}

// Snapshot is the complete mid-run state of a core.Simulation, captured at
// an engine-idle boundary (between AdvanceTo segments, never inside a
// handler).
type Snapshot struct {
	// At is the capture time.
	At sim.Time
	// Fingerprint identifies the configuration the snapshot belongs to;
	// Restore refuses a mismatching config (a snapshot is only meaningful
	// against the deterministic re-assembly of the same run).
	Fingerprint string
	// NumInjectors is how many of the restoring config's injectors existed
	// at capture time. A restoring config may append further injectors —
	// that is the branching mechanism — but the first NumInjectors must
	// match the captured run.
	NumInjectors int
	// Engine is the captured event queue, clock, and counters.
	Engine sim.EngineState
	// Arrived is how many workload instances (in generation order) had
	// arrived by At; VMs holds their dynamic overlays, index-aligned.
	Arrived int
	VMs     []VMState
	// Down holds the scenario layer's out-of-service claim counts per node.
	Down SortedMap[int]
	// RNGs holds the marshaled state of every registered live RNG stream,
	// keyed by its registration name.
	RNGs SortedMap[[]byte]
	// Counters and Sched carry the scalar accumulators.
	Counters Counters
	Sched    SchedulerState
	// Events is the scheduling-relevant event log up to At.
	Events []events.Event
	// Series is the telemetry store's contents in creation order.
	Series []telemetry.SeriesData
}

// ErrCorrupt is returned when a snapshot stream fails its integrity checks
// (bad magic, digest mismatch, or malformed payload).
var ErrCorrupt = errors.New("snapshot: corrupt snapshot")

// ErrVersion is returned for a structurally sound snapshot written by an
// incompatible format version.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Encode serializes the snapshot: an 8-byte magic (embedding the format
// version), a big-endian uint32 format version, the SHA-256 digest of the
// gob payload, a big-endian uint64 payload length, then the payload. The
// digest stamp makes bit flips and truncation detectable without decoding.
func Encode(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	var hdr [8 + 4 + sha256.Size + 8]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint32(hdr[8:12], FormatVersion)
	copy(hdr[12:12+sha256.Size], sum[:])
	binary.BigEndian.PutUint64(hdr[12+sha256.Size:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// EncodeBytes is Encode into a fresh byte slice.
func EncodeBytes(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reads and verifies a snapshot stream: magic, version, digest, and
// length must all check out before the payload is decoded. Corruption —
// truncation, bit flips, trailing garbage in the length field — surfaces as
// ErrCorrupt; a foreign format version as ErrVersion.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [8 + 4 + sha256.Size + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:7], magic[:7]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver := binary.BigEndian.Uint32(hdr[8:12])
	if hdr[7] != byte(ver) || ver != FormatVersion {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrVersion, ver, FormatVersion)
	}
	var want [sha256.Size]byte
	copy(want[:], hdr[12:12+sha256.Size])
	n := binary.BigEndian.Uint64(hdr[12+sha256.Size:])
	const maxPayload = 16 << 30
	if n > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: gob: %v", ErrCorrupt, err)
	}
	return &s, nil
}

// DecodeBytes is Decode from a byte slice.
func DecodeBytes(b []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(b))
}

// Digest returns the hex SHA-256 of the snapshot's encoded form — the
// content address a CAS stores the blob under.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

package sapsim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// snapshotTestConfig exercises the snapshot-relevant machinery: an injector
// with recovery closures plus the default DRS and resize churn.
func snapshotTestConfig(seed uint64) Config {
	cfg := sessionTestConfig(seed)
	cfg.Injectors = []core.Injector{
		scenario.HostFailures{At: 8 * sim.Hour, Fraction: 0.1, Recover: 6 * sim.Hour, Salt: 3},
	}
	return cfg
}

// TestSessionSnapshotCadence: WithSnapshotEvery segments the run and emits
// one detached snapshot per boundary, skipping the horizon itself;
// LastSnapshot tracks the newest one.
func TestSessionSnapshotCadence(t *testing.T) {
	col := &collector{}
	cfg := snapshotTestConfig(11)
	every := 6 * sim.Hour
	s, err := NewSession(cfg, WithObserver(col), WithSnapshotEvery(every))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	var snaps []SnapshotReady
	for _, ev := range col.snapshot() {
		if sr, ok := ev.(SnapshotReady); ok {
			snaps = append(snaps, sr)
		}
	}
	// 2 days at a 6-hour cadence: boundaries at 6h..42h; 48h is the horizon
	// and is skipped.
	want := int(cfg.Horizon()/every) - 1
	if len(snaps) != want {
		t.Fatalf("got %d snapshots, want %d", len(snaps), want)
	}
	for i, sr := range snaps {
		if at := sim.Time(i+1) * every; sr.At != at || sr.Snapshot.At != at {
			t.Fatalf("snapshot %d at %v/%v, want %v", i, sr.At, sr.Snapshot.At, at)
		}
	}
	last, ok := s.LastSnapshot()
	if !ok || last != snaps[len(snaps)-1].Snapshot {
		t.Fatal("LastSnapshot does not track the final periodic snapshot")
	}
	// The session itself still finished normally.
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionResumeEquivalence: snapshot a session mid-run, round-trip the
// snapshot through its wire form, resume a new session from it — every
// artifact digest must match the uninterrupted run.
func TestSessionResumeEquivalence(t *testing.T) {
	cfg := snapshotTestConfig(12)
	coldRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldDigests, err := ArtifactDigests(coldRes)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.Step(24); err != nil { // 12h of a 48h run
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A second same-seed session stepped to the same tick encodes the same
	// bytes, so content-addressed snapshot blobs deduplicate.
	twin, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if _, err := twin.Step(24); err != nil {
		t.Fatal(err)
	}
	twinSnap, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	twinBlob, err := EncodeSnapshotBytes(twinSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(twinBlob, blob) {
		t.Error("same-seed sessions at the same tick encode different snapshot bytes")
	}
	decoded, err := DecodeSnapshotBytes(blob)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeFromSnapshot(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if now := resumed.Now(); now != cfg.Horizon() {
		t.Fatalf("resumed session ended at %v, want horizon %v", now, cfg.Horizon())
	}
	res, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	digests, err := ArtifactDigests(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(digests, coldDigests) {
		for id, d := range digests {
			if coldDigests[id] != d {
				t.Errorf("artifact %s diverged after resume", id)
			}
		}
		t.Fatal("resumed run is not byte-identical to the cold run")
	}
}

// TestSessionFork: one snapshot, two speculative branches. The calm branch
// reproduces the base run exactly; the outage branch diverges.
func TestSessionFork(t *testing.T) {
	cfg := sessionTestConfig(13)
	coldRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldDigests, err := ArtifactDigests(coldRes)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.Step(32); err != nil { // 16h of a 48h run
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	branches, err := Fork(cfg, snap, []Branch{
		{Name: "calm"},
		{Name: "az-outage", Injectors: []Injector{
			scenario.AZOutage{At: 20 * sim.Hour, AZIndex: 0, Duration: 4 * sim.Hour},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, len(branches))
	for i, b := range branches {
		if err := b.RunToCompletion(); err != nil {
			t.Fatalf("branch %s: %v", b.Name(), err)
		}
		if results[i], err = b.Result(); err != nil {
			t.Fatalf("branch %s: %v", b.Name(), err)
		}
		b.Close()
	}
	if branches[0].Name() != "calm" || branches[1].Name() != "az-outage" {
		t.Fatal("branch names lost")
	}
	calmDigests, err := ArtifactDigests(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calmDigests, coldDigests) {
		t.Fatal("calm branch diverged from the base run")
	}
	if results[0].Events.Len() == results[1].Events.Len() {
		t.Fatal("outage branch produced the same event stream as the calm branch")
	}
}

func TestSnapshotOptionValidation(t *testing.T) {
	cfg := sessionTestConfig(14)
	if _, err := NewSession(cfg, WithSnapshotEvery(0)); err == nil {
		t.Error("zero snapshot interval accepted")
	}
	if _, err := ResumeFromSnapshot(cfg, nil); err == nil {
		t.Error("nil snapshot accepted by ResumeFromSnapshot")
	}
	if _, err := Fork(cfg, nil, []Branch{{Name: "x"}}); err == nil {
		t.Error("nil snapshot accepted by Fork")
	}

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Snapshot() // builds lazily, snapshot at t=0
	if err != nil {
		t.Fatal(err)
	}
	if snap.At != 0 {
		t.Fatalf("fresh-session snapshot at %v, want 0", snap.At)
	}
	if _, err := Fork(cfg, snap, nil); err == nil {
		t.Error("Fork with no branches accepted")
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot on a done session accepted")
	}

	// A mismatching config is refused at Build through the fingerprint.
	other := cfg
	other.Seed = 99
	bad, err := ResumeFromSnapshot(other, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.Build(); err == nil {
		t.Error("resume under a different seed accepted")
	}

	// Corruption surfaces as ErrSnapshotCorrupt.
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x40
	if _, err := DecodeSnapshotBytes(blob); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bit-flipped snapshot decoded: %v", err)
	}
	if _, err := DecodeSnapshotBytes(blob[:60]); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("truncated snapshot decoded: %v", err)
	}
}

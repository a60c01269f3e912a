package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"sapsim/internal/sim"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		At:           36 * sim.Hour,
		Fingerprint:  "cfg-fingerprint",
		NumInjectors: 2,
		Arrived:      17,
		VMs: []VMState{
			{Flavor: "m1.large", State: 1, Node: "node-3", Live: true, PlacedAt: sim.Hour},
			{Flavor: "m1.small", State: 2, Live: false, DeletedAt: 30 * sim.Hour, Migrations: 3},
		},
		Down:     map[string]int{"node-9": 1},
		RNGs:     map[string][]byte{"workload": {1, 2, 3}, "drs": {4, 5}},
		Counters: Counters{Resizes: 4, DRSMigrations: 9, DRSPasses: 6},
		Sched: SchedulerState{Scheduled: 17, Retries: 2,
			Eliminated: map[string]int{"ram": 5, "cpu": 2, "az": 1},
			Contention: map[string]float64{"bb-0": 1.5, "bb-1": 0, "bb-2": 7.25}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot()
	blob, err := EncodeBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
	if d1, d2 := Digest(blob), Digest(blob); d1 != d2 || len(d1) != 64 {
		t.Fatalf("Digest unstable or malformed: %q vs %q", d1, d2)
	}
	// Maps encode in key order, so re-encoding the same state gives the
	// same bytes (plain gob maps would follow iteration order).
	for i := 0; i < 10; i++ {
		again, err := EncodeBytes(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("re-encoding the same snapshot gave different bytes")
		}
	}
}

// TestDecodeRejectsDamage: every way a blob can rot in storage or transit
// must surface as ErrCorrupt — never a silent partial decode.
func TestDecodeRejectsDamage(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	headerLen := 8 + 4 + 32 + 8
	damage := map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"short header":     func(b []byte) []byte { return b[:headerLen-1] },
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xff; return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)-1] },
		"payload bit flip": func(b []byte) []byte { b[headerLen+len(b[headerLen:])/2] ^= 0x01; return b },
		"digest bit flip":  func(b []byte) []byte { b[12] ^= 0x01; return b },
		"length overflow": func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[12+32:], 1<<40)
			return b
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			b := corrupt(append([]byte(nil), blob...))
			if _, err := DecodeBytes(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte(nil), blob...)
	// A coherent future version: both the magic's version byte and the
	// header field agree, so this is version skew, not corruption.
	skewed[7] = FormatVersion + 1
	binary.BigEndian.PutUint32(skewed[8:12], FormatVersion+1)
	if _, err := DecodeBytes(skewed); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode = %v, want ErrVersion", err)
	}
	// A version byte that disagrees with the header field is also skew
	// (the pre-header reader path the magic byte exists for).
	mixed := append([]byte(nil), blob...)
	mixed[7] = FormatVersion + 1
	if _, err := DecodeBytes(mixed); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode = %v, want ErrVersion", err)
	}
}

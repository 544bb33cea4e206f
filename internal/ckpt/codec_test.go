package ckpt_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/workload"
)

// smallSnapshot builds a snapshot over a shrunken cache hierarchy, so its
// encoding is a few KiB and fuzzing it is cheap.
func smallSnapshot(t testing.TB) *ckpt.Snapshot {
	t.Helper()
	cfg := config.Default()
	cfg.L1.SizeBytes = 2 << 10
	cfg.L2.SizeBytes = 8 << 10
	cfg.WarmupInsts = 3_000
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Build(&cfg, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustEncode(t testing.TB, s *ckpt.Snapshot) []byte {
	t.Helper()
	b, err := ckpt.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCodecRoundTrip pins the binary snapshot codec: Decode inverts Encode
// field for field, the line images are used in place rather than copied,
// the encoding is smaller than the all-JSON form, and every truncation,
// extension or legacy JSON input is an error.
func TestCodecRoundTrip(t *testing.T) {
	cfg := testConfig(nil)
	cfg.WarmupInsts = 20_000
	snap, err := ckpt.Build(&cfg, mustProfile(t, "gzip"), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := mustEncode(t, snap)
	got, err := ckpt.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("snapshot did not survive Encode/Decode")
	}
	l2 := got.Hier.L2.Lines
	if &l2[len(l2)-1] != &b[len(b)-1] {
		t.Error("Decode copied the L2 line image instead of slicing the input")
	}
	legacy, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= len(legacy) {
		t.Errorf("encoding is %d bytes, not smaller than the %d-byte JSON form", len(b), len(legacy))
	}
	if _, err := ckpt.Decode(legacy); err == nil {
		t.Error("Decode accepted a legacy JSON snapshot")
	}
	if _, err := ckpt.Decode(append(bytes.Clone(b), 0)); err == nil {
		t.Error("Decode accepted a trailing byte")
	}
	for _, n := range []int{0, 4, 8, 11, 12, 40, len(b) - len(l2) - 1, len(b) - len(l2), len(b) - 1} {
		if _, err := ckpt.Decode(b[:n]); err == nil {
			t.Errorf("Decode accepted the encoding truncated to %d of %d bytes", n, len(b))
		}
	}
	if _, err := ckpt.Encode(&ckpt.Snapshot{Key: "k"}); err == nil {
		t.Error("Encode accepted an incomplete snapshot")
	}
}

// TestDiskStoreLegacyEntries pins the format switch: leftover all-JSON
// files are deleted when a store opens, and JSON content under the current
// file name reads as a miss.
func TestDiskStoreLegacyEntries(t *testing.T) {
	snap := smallSnapshot(t)
	legacy, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old := filepath.Join(dir, snap.Key+".ckpt.json")
	cur := filepath.Join(dir, snap.Key+ckpt.DiskSuffixForTest)
	for _, p := range []string{old, cur} {
		if err := os.WriteFile(p, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := ckpt.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("legacy snapshot file survived store open")
	}
	if _, ok := store.Get(snap.Key); ok {
		t.Error("a JSON snapshot was served as a hit")
	}
	store.Put(snap)
	if got, ok := store.Get(snap.Key); !ok || !reflect.DeepEqual(got, snap) {
		t.Error("rewritten snapshot did not round-trip")
	}
}

// FuzzDecode feeds Decode arbitrary bytes: it must return an error or a
// snapshot, never panic, and whatever it accepts must re-encode stably.
func FuzzDecode(f *testing.F) {
	snap := smallSnapshot(f)
	b := mustEncode(f, snap)
	legacy, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)/2])
	f.Add(legacy)
	f.Add([]byte("ELSQCKP1"))
	f.Add([]byte{})
	for _, i := range []int{0, 8, 9, 12, 30, len(b) - 1} {
		flipped := bytes.Clone(b)
		flipped[i] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ckpt.Decode(data)
		if err != nil {
			return
		}
		e1, err := ckpt.Encode(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		s2, err := ckpt.Decode(e1)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if e2 := mustEncode(t, s2); !bytes.Equal(e1, e2) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

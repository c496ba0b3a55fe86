package boltlike_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/store/storetest"
)

func boltMedium(t *testing.T, opts store.Options) storetest.Medium {
	path := filepath.Join(t.TempDir(), "store.bolt")
	return storetest.Medium{
		Open: func() (store.Store, error) { return boltlike.Open(path, opts) },
		Truncate: func(n int64) error {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			size := info.Size() - n
			if size < 0 {
				size = 0
			}
			return os.Truncate(path, size)
		},
	}
}

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Medium {
		return boltMedium(t, store.Options{})
	})
}

func TestConformanceGroupedSync(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Medium {
		return boltMedium(t, store.Options{SyncEvery: 8})
	})
}

func openWithRecords(t *testing.T, path string, recs []store.Record) {
	t.Helper()
	s, err := boltlike.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCRCCorruptionScanStop flips one payload bit in the middle frame:
// recovery must stop the scan there, keep everything before it, and
// report the tear.
func TestCRCCorruptionScanStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.bolt")
	openWithRecords(t, path, []store.Record{
		{Op: store.OpRegister, Name: "a", Doc: `<service name="a"/>`, Version: 1},
		{Op: store.OpRegister, Name: "b", Doc: `<service name="b"/>`, Version: 1},
		{Op: store.OpRegister, Name: "c", Doc: `<service name="c"/>`, Version: 1},
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Frames are identical length; flip a bit inside the second payload.
	frameLen := (len(data) - 12) / 3
	data[12+frameLen+8+4] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	s, err := boltlike.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer func() { _ = s.Close() }()
	var got []store.Record
	stats, err := s.Replay(func(rec store.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !stats.TornTail {
		t.Fatal("corruption not reported as a torn tail")
	}
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("replayed %v, want only the frame before the corruption", got)
	}
}

// TestBadMagicRefuses pins the refusal contract: a file that is not ours
// — a foreign binary, or a JSON-lines journal from an earlier release —
// is refused with a CorruptError and is not modified: no header rewrite,
// no truncation.
func TestBadMagicRefuses(t *testing.T) {
	for name, content := range map[string]string{
		"other.bin":    "GIF89a...definitely not a store",
		"legacy.jsonl": `{"op":"register","doc":"<service name=\"a\"/>"}` + "\n" + `{"op":"regi`,
		"v2.jsonl":     `{"format":"sdp-store","v":2}` + "\n",
		"short":        "hi",
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, err := boltlike.Open(path, store.Options{})
		var corrupt *store.CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("%s: open = %v, want CorruptError", name, err)
		}
		if !strings.Contains(err.Error(), "not a boltlike store") {
			t.Fatalf("%s: refusal does not say what is wrong: %v", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || string(after) != content {
			t.Fatalf("%s: refused file was modified: %q", name, after)
		}
	}
}

// TestFutureVersionRefuses pins forward-compatibility: a header written
// by a newer schema fails with VersionError, not silent misreads.
func TestFutureVersionRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.bolt")
	hdr := make([]byte, 12)
	copy(hdr, "SDPBOLT\x01")
	binary.LittleEndian.PutUint32(hdr[8:], uint32(store.RecordVersion+1))
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err := boltlike.Open(path, store.Options{})
	var ver *store.VersionError
	if !errors.As(err, &ver) {
		t.Fatalf("open = %v, want VersionError", err)
	}
	if ver.Got != store.RecordVersion+1 || ver.Max != store.RecordVersion {
		t.Fatalf("VersionError = %+v", ver)
	}
}

// TestKeydir pins the O(1) live-service index across appends,
// supersedes, deregisters and reopen.
func TestKeydir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keydir.bolt")
	s, err := boltlike.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := []store.Record{
		{Op: store.OpRegister, Name: "a", Doc: `<service name="a"/>`, Version: 1},
		{Op: store.OpRegister, Name: "b", Doc: `<service name="b"/>`, Version: 1},
		{Op: store.OpRegister, Name: "a", Doc: `<service name="a"/>`, Version: 2}, // supersede, not a new key
		{Op: store.OpDeregister, Name: "b"},
	}
	for i, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := s.LiveServices(); n != 1 {
		t.Fatalf("LiveServices = %d, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s, err = boltlike.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s.Close() }()
	if n := s.LiveServices(); n != 1 {
		t.Fatalf("LiveServices after reopen = %d, want 1", n)
	}
}

// TestGroupedSyncRegression pins the grouped-fsync contract: with
// SyncEvery=N a clean close loses nothing, whatever was still pending.
func TestGroupedSyncRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grouped.bolt")
	s, err := boltlike.Open(path, store.Options{SyncEvery: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var want []store.Record
	for i := 0; i < 10; i++ { // 10 appends: 2 full groups + 2 pending at close
		rec := store.Record{Op: store.OpRegister, Name: strings.Repeat("x", i+1), Doc: "<service/>", Version: 1}
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s, err = boltlike.Open(path, store.Options{SyncEvery: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s.Close() }()
	var got []store.Record
	stats, err := s.Replay(func(rec store.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.TornTail {
		t.Fatal("clean close reported a torn tail")
	}
	if len(got) != len(want) {
		t.Fatalf("clean close lost records: replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

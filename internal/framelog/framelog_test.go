package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var testHeader = []byte("FRAMELOG-TEST\x01")

// payloads of assorted sizes, none empty.
func testPayloads() [][]byte {
	return [][]byte{
		[]byte("a"),
		[]byte(`{"op":"register","name":"b"}`),
		bytes.Repeat([]byte{0xAB}, 300),
		[]byte("tail"),
	}
}

// writeLog creates a closed log at path holding payloads.
func writeLog(t *testing.T, path string, payloads [][]byte) {
	t.Helper()
	l, err := Open(path, testHeader, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, p := range payloads {
		if err := l.Append(p, i%2 == 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// collect returns a visit callback accumulating copies of the payloads.
func collect(into *[][]byte) func([]byte) error {
	return func(p []byte) error {
		*into = append(*into, append([]byte(nil), p...))
		return nil
	}
}

// isPrefix reports whether got is a prefix of want, frame for frame.
func isPrefix(got, want [][]byte) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func TestAppendScanReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	want := testPayloads()
	writeLog(t, path, want)

	var opened [][]byte
	l, err := Open(path, testHeader, collect(&opened))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = l.Close() }()
	if l.Torn() || len(opened) != len(want) || !isPrefix(opened, want) {
		t.Fatalf("reopen delivered %d frames (torn=%v), want %d", len(opened), l.Torn(), len(want))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != fi.Size() {
		t.Fatalf("Size = %d, file is %d bytes", l.Size(), fi.Size())
	}
	// The bounded scan sees frames appended by this handle too.
	if err := l.Append([]byte("more"), true); err != nil {
		t.Fatal(err)
	}
	var scanned [][]byte
	good, torn, err := l.Scan(collect(&scanned))
	if err != nil || torn || good != l.Size() || len(scanned) != len(want)+1 {
		t.Fatalf("Scan = %d frames, good %d, torn %v, err %v", len(scanned), good, torn, err)
	}
	// A visit error aborts the scan and comes back verbatim.
	boom := errors.New("boom")
	if _, _, err := l.Scan(func([]byte) error { return boom }); err != boom {
		t.Fatalf("Scan visit error = %v, want boom", err)
	}
	if err := l.Append(nil, false); err == nil {
		t.Fatal("empty payload accepted (it would read back as damage)")
	}
}

// TestCrashInjection is the one table of frame-level crash behaviour:
// over a multi-frame log, truncate at every byte offset and flip one bit
// at every offset. Whatever the damage, recovery delivers a strict prefix
// of what was appended, the reported good offset re-scans clean, and the
// repaired log takes appends.
func TestCrashInjection(t *testing.T) {
	dir := t.TempDir()
	pristine := filepath.Join(dir, "pristine")
	want := testPayloads()
	writeLog(t, pristine, want)
	image, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, name string, damaged []byte) {
		t.Helper()
		path := filepath.Join(dir, "case")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		// The read-only scan and the repairing open must agree.
		var scanned [][]byte
		good, torn, err := Scan(path, testHeader, collect(&scanned))
		var hdr *HeaderError
		if errors.As(err, &hdr) {
			// Damage inside the header: refused, and never truncated.
			if _, err := Open(path, testHeader, nil); !errors.As(err, &hdr) {
				t.Fatalf("%s: Scan refused the header but Open = %v", name, err)
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, damaged) {
				t.Fatalf("%s: a refused file was modified", name)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: Scan: %v", name, err)
		}
		if !isPrefix(scanned, want) {
			t.Fatalf("%s: recovered frames are not a prefix of what was appended", name)
		}
		if !torn && len(scanned) != len(want) && len(damaged) == len(image) {
			t.Fatalf("%s: %d of %d frames lost without a reported tear", name, len(want)-len(scanned), len(want))
		}
		var opened [][]byte
		l, err := Open(path, testHeader, collect(&opened))
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if l.Torn() != torn || len(opened) != len(scanned) {
			t.Fatalf("%s: Open saw %d frames torn=%v, Scan saw %d torn=%v", name, len(opened), l.Torn(), len(scanned), torn)
		}
		if wantSize := max(good, int64(len(testHeader))); l.Size() != wantSize {
			t.Fatalf("%s: Size after repair = %d, want %d", name, l.Size(), wantSize)
		}
		if err := l.Append([]byte("after"), true); err != nil {
			t.Fatalf("%s: append after repair: %v", name, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// The repaired file re-scans clean, ending in the new frame.
		var again [][]byte
		regood, retorn, err := Scan(path, testHeader, collect(&again))
		if err != nil || retorn || len(again) != len(scanned)+1 || string(again[len(again)-1]) != "after" {
			t.Fatalf("%s: re-scan = %d frames torn=%v err=%v, want %d clean", name, len(again), retorn, err, len(scanned)+1)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != regood {
			t.Fatalf("%s: file is %d bytes, good offset %d", name, fi.Size(), regood)
		}
	}

	for cut := 0; cut < len(image); cut++ {
		check(t, fmt.Sprintf("truncate@%d", cut), image[:cut])
	}
	for off := 0; off < len(image); off++ {
		flipped := append([]byte(nil), image...)
		flipped[off] ^= 0x10
		check(t, fmt.Sprintf("flip@%d", off), flipped)
	}
}

// TestWrongHeaderNeverTruncates pins the refusal contract for whole
// foreign files, long and short.
func TestWrongHeaderNeverTruncates(t *testing.T) {
	for _, content := range []string{"GIF89a...definitely not a log, and longer than the header", "hi", `{"op":"register"}` + "\n"} {
		path := filepath.Join(t.TempDir(), "foreign")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path, testHeader, nil)
		var hdr *HeaderError
		if !errors.As(err, &hdr) {
			t.Fatalf("Open(%q) = %v, want HeaderError", content, err)
		}
		if after, err := os.ReadFile(path); err != nil || string(after) != content {
			t.Fatalf("foreign file %q was modified to %q", content, after)
		}
	}
}

// failingFile writes through to the real file but fails once budget
// bytes have been written — a disk filling up mid-frame.
type failingFile struct {
	file
	budget      int
	failRepairs bool
}

var errDiskFull = errors.New("injected: no space left on device")

func (f *failingFile) Write(p []byte) (int, error) {
	if len(p) <= f.budget {
		f.budget -= len(p)
		return f.file.Write(p)
	}
	n, _ := f.file.Write(p[:f.budget])
	f.budget = 0
	return n, errDiskFull
}

func (f *failingFile) Truncate(size int64) error {
	if f.failRepairs {
		return errors.New("injected: truncate failed")
	}
	return f.file.Truncate(size)
}

// TestFailedWriteRollsBack is the acknowledged-write-loss regression: a
// write that fails after k bytes must leave no garbage behind, so the
// next append lands on the good edge and a reopen replays every
// acknowledged record.
func TestFailedWriteRollsBack(t *testing.T) {
	payload := []byte("0123456789abcdef")
	for k := 0; k < frameHeader+len(payload); k++ {
		path := filepath.Join(t.TempDir(), "log")
		l, err := Open(path, testHeader, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("first"), true); err != nil {
			t.Fatal(err)
		}
		real := l.f
		l.f = &failingFile{file: real, budget: k}
		if err := l.Append(payload, true); !errors.Is(err, errDiskFull) {
			t.Fatalf("k=%d: failed write returned %v", k, err)
		}
		l.f = real // space freed
		if err := l.Append([]byte("third"), true); err != nil {
			t.Fatalf("k=%d: append after a rolled-back write: %v", k, err)
		}
		// Live readers see a clean prefix...
		var live [][]byte
		if _, torn, err := l.Scan(collect(&live)); err != nil || torn {
			t.Fatalf("k=%d: live scan torn=%v err=%v", k, torn, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// ...and so does recovery: nothing acknowledged is dropped.
		var got [][]byte
		re, err := Open(path, testHeader, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if re.Torn() || len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "third" {
			t.Fatalf("k=%d: reopen torn=%v frames=%q, want [first third]", k, re.Torn(), got)
		}
		_ = re.Close()
	}
}

// TestFailedRollbackPoisons: when the garbage cannot be cut off, no
// later append may be acknowledged.
func TestFailedRollbackPoisons(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log"), testHeader, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	real := l.f
	l.f = &failingFile{file: real, budget: 3, failRepairs: true}
	first := l.Append([]byte("doomed"), true)
	if !errors.Is(first, errDiskFull) {
		t.Fatalf("failed write returned %v", first)
	}
	l.f = real
	if err := l.Append([]byte("later"), true); err != first {
		t.Fatalf("append on a poisoned log = %v, want the original error", err)
	}
	if err := l.Healthy(); err != first {
		t.Fatalf("Healthy on a poisoned log = %v", err)
	}
}

func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeLog(t, path, testPayloads())
	l, err := Open(path, testHeader, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	keep := [][]byte{[]byte("x"), []byte("yy")}
	if err := l.Rewrite(keep); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := l.Append([]byte("zzz"), true); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	var got [][]byte
	good, torn, err := Scan(path, testHeader, collect(&got))
	if err != nil || torn || good != l.Size() || !isPrefix(got, append(keep, []byte("zzz"))) || len(got) != 3 {
		t.Fatalf("after rewrite: %q good=%d size=%d torn=%v err=%v", got, good, l.Size(), torn, err)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	// Rewriting to nothing leaves a header-only log.
	if err := l.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(len(testHeader)) {
		t.Fatalf("Size after empty rewrite = %d", l.Size())
	}
}

func TestClosed(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log"), testHeader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := l.Append([]byte("x"), false); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Append = %v", err)
	}
	if _, _, err := l.Scan(nil); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Scan = %v", err)
	}
	if err := l.Rewrite(nil); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Rewrite = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Sync = %v", err)
	}
	if err := l.Healthy(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Healthy = %v", err)
	}
}

// FuzzScan feeds arbitrary bytes after a valid header to the scan loop:
// it must not panic, must never deliver a payload whose CRC fails, and
// the good offset it reports must itself re-scan clean.
func FuzzScan(f *testing.F) {
	var image []byte
	for _, p := range testPayloads() {
		image = appendFrame(image, p)
	}
	f.Add(image)
	f.Add(image[:len(image)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(appendFrame(nil, nil)) // zero-length frame
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(append([]byte(nil), testHeader...), body...)
		var frames [][]byte
		good, torn, err := scanFrames(bytes.NewReader(data), "fuzz", testHeader, int64(len(data)), collect(&frames))
		if err != nil {
			t.Fatalf("scan of in-memory bytes failed: %v", err)
		}
		if good < int64(len(testHeader)) || good > int64(len(data)) || (!torn && good != int64(len(data))) {
			t.Fatalf("good=%d torn=%v over %d bytes", good, torn, len(data))
		}
		// Re-encoding the delivered frames reproduces the validated
		// prefix byte for byte — which is exactly "every CRC held".
		rebuilt := append([]byte(nil), testHeader...)
		for _, p := range frames {
			rebuilt = appendFrame(rebuilt, p)
		}
		if !bytes.Equal(rebuilt, data[:good]) {
			t.Fatalf("delivered frames do not re-encode to the validated prefix")
		}
		n := 0
		regood, retorn, err := scanFrames(bytes.NewReader(data[:good]), "fuzz", testHeader, good, func([]byte) error { n++; return nil })
		if err != nil || retorn || regood != good || n != len(frames) {
			t.Fatalf("validated prefix does not re-scan clean: good=%d torn=%v n=%d err=%v", regood, retorn, n, err)
		}
	})
}

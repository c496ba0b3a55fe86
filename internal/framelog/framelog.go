// Package framelog is the one durable log under both the service store
// (internal/store/boltlike) and the telemetry journal
// (internal/telemetry), and the only code that knows the on-disk frame.
//
// Layout of a log file:
//
//	header : opaque bytes supplied by the caller (its magic and version)
//	frame  : uint32 LE payload length + uint32 LE CRC-32 (IEEE) of the
//	         payload + payload
//
// Recovery is scan-stop: reading walks the frames and stops at the first
// one that is incomplete, oversized, fails its checksum or is rejected by
// the caller's decoder. Open truncates the file there, so everything
// durable before a crash's tear is kept and the next append lands on a
// clean edge. Only the header is never repaired: a file that does not
// start with the caller's header is not ours, and is refused untouched
// with a *HeaderError.
//
// The package imports the standard library only, so any layer may build
// on it without an import cycle.
package framelog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	frameHeader = 8 // length + crc

	// MaxPayload caps one frame's payload; a larger length field reads
	// as damage, and Append refuses to write one.
	MaxPayload = 64 << 20
)

// ErrBadFrame is returned by a visit callback to reject a payload whose
// checksum holds but which it cannot decode (written by code this binary
// does not understand). The scan treats the frame exactly like a
// checksum failure: it stops there and reports the tear.
var ErrBadFrame = errors.New("framelog: payload rejected by the reader")

// HeaderError reports a file whose first bytes are not the expected
// header. The file is left untouched.
type HeaderError struct {
	Path string
	// Got is what the file holds where the header should be.
	Got []byte
}

func (e *HeaderError) Error() string {
	return fmt.Sprintf("framelog: %s does not start with the expected header (got %q)", e.Path, e.Got)
}

// file is what a Log needs of its append handle; the package's tests
// substitute one that fails mid-write.
type file interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is one open log file positioned for appends. All methods are
// goroutine-safe.
type Log struct {
	path   string
	header []byte

	mu     sync.Mutex
	f      file  // append handle, guarded by mu
	size   int64 // header plus validated frames, guarded by mu
	torn   bool  // Open truncated damage, guarded by mu
	failed error // the file is in an unknown state; every later write returns it, guarded by mu
	closed bool  // guarded by mu
}

// Open opens (creating if needed) the log at path. Every frame is
// validated and handed to visit in order (visit may be nil); the file is
// truncated at the first damaged or rejected frame and fsynced. An error
// from visit other than ErrBadFrame aborts the open and is returned
// verbatim. The payload slice is only valid during the call.
func Open(path string, header []byte, visit func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framelog: %w", err)
	}
	good, torn, err := scanFile(f, path, header, -1, visit)
	if err == nil && (torn || good < int64(len(header))) {
		good, err = repair(f, header, good)
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		_ = f.Close() // the recovery failure is the diagnosis
		return nil, err
	}
	return &Log{path: path, header: header, f: f, size: good, torn: torn}, nil
}

// repair cuts the file back to its last good edge, writing the header
// first when the tear (or a brand-new file) left none, and fsyncs.
func repair(f *os.File, header []byte, good int64) (int64, error) {
	if err := f.Truncate(good); err != nil {
		return 0, fmt.Errorf("framelog: truncating torn tail: %w", err)
	}
	if good < int64(len(header)) {
		if _, err := f.WriteAt(header, 0); err != nil {
			return 0, fmt.Errorf("framelog: writing header: %w", err)
		}
		good = int64(len(header))
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("framelog: %w", err)
	}
	return good, nil
}

// Scan reads the log file at path without opening it for writing or
// repairing it: every valid frame goes to visit in order, and the result
// is the offset of the last clean frame edge plus whether damage (or a
// rejected frame) follows it. A file shorter than the header that is a
// prefix of it — a crash while creating the file — is torn at offset 0.
func Scan(path string, header []byte, visit func(payload []byte) error) (good int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("framelog: %w", err)
	}
	defer f.Close()
	return scanFile(f, path, header, -1, visit)
}

// Scan streams the log's validated frames — those present at Open plus
// those appended since — through an independent read handle, so appends
// may continue meanwhile. Frames inside that prefix were all checked
// once, so torn=true here means the medium was damaged under a live
// process.
func (l *Log) Scan(visit func(payload []byte) error) (good int64, torn bool, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, false, fmt.Errorf("framelog: scan %s: %w", l.path, os.ErrClosed)
	}
	size := l.size
	// Opened under the lock so a concurrent Rewrite cannot swap the file
	// between reading size and opening the path.
	f, err := os.Open(l.path)
	l.mu.Unlock()
	if err != nil {
		return 0, false, fmt.Errorf("framelog: %w", err)
	}
	defer f.Close()
	return scanFile(f, l.path, l.header, size, visit)
}

// scanFile scans f up to limit bytes (the whole file when limit < 0).
func scanFile(f *os.File, path string, header []byte, limit int64, visit func(payload []byte) error) (good int64, torn bool, err error) {
	if limit < 0 {
		info, err := f.Stat()
		if err != nil {
			return 0, false, fmt.Errorf("framelog: %w", err)
		}
		limit = info.Size()
	}
	return scanFrames(f, path, header, limit, visit)
}

// scanFrames is the one scan-stop loop: it checks the header at the
// start of r and walks frames until limit bytes are consumed or a frame
// is damaged. path only labels errors.
func scanFrames(r io.Reader, path string, header []byte, limit int64, visit func(payload []byte) error) (good int64, torn bool, err error) {
	got := make([]byte, min(int64(len(header)), limit))
	if _, err := io.ReadFull(r, got); err != nil {
		return 0, false, fmt.Errorf("framelog: reading header of %s: %w", path, err)
	}
	if !bytes.HasPrefix(header, got) {
		return 0, false, &HeaderError{Path: path, Got: got}
	}
	if len(got) < len(header) {
		return 0, len(got) > 0, nil
	}
	good = int64(len(header))
	r = bufio.NewReader(io.LimitReader(r, limit-good))
	var head [frameHeader]byte
	var payload []byte
	for good < limit {
		// A frame that claims more bytes than remain is torn; checking
		// before reading keeps a garbage length from allocating 64 MiB.
		if limit-good < frameHeader {
			return good, true, nil
		}
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return good, false, fmt.Errorf("framelog: scanning %s: %w", path, err)
		}
		length := int64(binary.LittleEndian.Uint32(head[:4]))
		if length == 0 || length > MaxPayload || length > limit-good-frameHeader {
			return good, true, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, false, fmt.Errorf("framelog: scanning %s: %w", path, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[4:]) {
			return good, true, nil
		}
		if visit != nil {
			if err := visit(payload); err == ErrBadFrame {
				return good, true, nil
			} else if err != nil {
				return good, false, err
			}
		}
		good += frameHeader + length
	}
	return good, false, nil
}

// appendFrame appends payload's frame to buf.
func appendFrame(buf, payload []byte) []byte {
	var head [frameHeader]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:], crc32.ChecksumIEEE(payload))
	return append(append(buf, head[:]...), payload...)
}

// Append writes one frame with a single write call and, when sync is
// set, fsyncs it before returning. A failed or short write is rolled
// back — the file is cut to the last good edge — so the error means the
// record is not in the log and the next append starts clean. (A failed
// fsync is different: the frame stays in the file and may or may not
// survive a crash; the caller must not acknowledge it.) If the
// rollback itself fails the log is poisoned: this and every later append
// return the original error, because a frame written after unreachable
// garbage would be acknowledged and then lost at the next recovery.
func (l *Log) Append(payload []byte, sync bool) error {
	if len(payload) == 0 || len(payload) > MaxPayload {
		return fmt.Errorf("framelog: append %s: payload of %d bytes outside 1..%d", l.path, len(payload), MaxPayload)
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("framelog: append %s: %w", l.path, os.ErrClosed)
	}
	if l.failed != nil {
		return l.failed
	}
	if n, err := l.f.Write(frame); err != nil || n < len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		err = fmt.Errorf("framelog: append %s: %w", l.path, err)
		if rerr := l.rollbackLocked(); rerr != nil {
			l.failed = fmt.Errorf("%w (log poisoned: rolling back to byte %d failed: %v)", err, l.size, rerr)
			return l.failed
		}
		return err
	}
	l.size += int64(len(frame))
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("framelog: sync %s: %w", l.path, err)
		}
	}
	return nil
}

// rollbackLocked cuts the file back to the last good edge after a failed
// write and repositions the handle there.
func (l *Log) rollbackLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// Sync fsyncs the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("framelog: sync %s: %w", l.path, os.ErrClosed)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("framelog: sync %s: %w", l.path, err)
	}
	return nil
}

// Rewrite atomically replaces the log's contents with the given payloads:
// they are framed into a temporary file beside the log, fsynced, renamed
// over it, and the directory is fsynced so the rename survives a crash.
// An error before the rename leaves the old log intact and in use. One
// after it poisons the log like a failed rollback: the append handle
// would still point at the replaced file, and frames written there would
// be acknowledged and never seen again.
func (l *Log) Rewrite(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("framelog: rewrite %s: %w", l.path, os.ErrClosed)
	}
	if l.failed != nil {
		return l.failed
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("framelog: rewrite: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	w := bufio.NewWriter(tmp)
	size := int64(len(l.header))
	_, err = w.Write(l.header)
	var frame []byte
	for _, payload := range payloads {
		if err != nil {
			break
		}
		if len(payload) == 0 || len(payload) > MaxPayload {
			err = fmt.Errorf("payload of %d bytes outside 1..%d", len(payload), MaxPayload)
			break
		}
		frame = appendFrame(frame[:0], payload)
		size += int64(len(frame))
		_, err = w.Write(frame)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, l.path)
	}
	if err != nil {
		return fmt.Errorf("framelog: rewrite %s: %w", l.path, err)
	}
	err = syncDir(l.path)
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(l.path, os.O_RDWR, 0o644)
	}
	if err == nil {
		if _, err = f.Seek(size, io.SeekStart); err != nil {
			_ = f.Close() // the seek failure is the diagnosis
		}
	}
	if err != nil {
		l.failed = fmt.Errorf("framelog: rewrite %s: log poisoned after the rename: %w", l.path, err)
		return l.failed
	}
	// Every byte the old handle wrote was just superseded by the fsynced
	// rewrite, so its close error has nothing left to report.
	_ = l.f.Close()
	l.f, l.size, l.torn = f, size, false
	return nil
}

// syncDir fsyncs the directory containing path, making a rename durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	return nil
}

// Size returns the log's validated length in bytes, header included.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Torn reports whether Open cut damage off the tail.
func (l *Log) Torn() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}

// Healthy reports whether the log can still take appends: it is open and
// not poisoned.
func (l *Log) Healthy() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("framelog: %s: %w", l.path, os.ErrClosed)
	}
	return l.failed
}

// Close releases the file without syncing (call Sync first when appends
// are outstanding). Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("framelog: close %s: %w", l.path, err)
	}
	return nil
}

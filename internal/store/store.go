// Package store defines the persistence engine behind a directory
// daemon: an append-only log of registry mutations that a restarted sdpd
// replays to recover its advertisements, with snapshotting and
// compaction so replay cost stops growing with history length.
//
// The contract is deliberately small — five methods — and has two
// implementations:
//
//   - boltlike: the one durable engine (sdpd -state), an embedded
//     log-structured store whose file format, crash recovery and atomic
//     rewrite are internal/framelog's.
//   - memstore: the in-memory fake for tests, sdpsim and ephemeral
//     daemons (sdpd -store mem).
//
// Both pass the same conformance suite (internal/store/storetest),
// including crash recovery via injected write truncation. JSON-lines
// journals written by earlier releases are import-only (jsonl.go).
package store

import (
	"errors"
	"fmt"
	"strings"
)

// Op names one kind of persisted registry mutation. The values are the
// wire strings of the v1 journal, so v1 histories replay unchanged.
type Op string

// The mutations a directory persists.
const (
	OpRegister    Op = "register"     // publish an advertisement document
	OpDeregister  Op = "deregister"   // withdraw a service by name
	OpAddOntology Op = "add-ontology" // upload an ontology document
)

// Record is one persisted mutation. Records are versioned on disk (see
// codec.go); this struct is the decoded, version-independent form.
type Record struct {
	Op   Op     `json:"op"`
	Doc  string `json:"doc,omitempty"`  // XML document for register/add-ontology
	Name string `json:"name,omitempty"` // service name for deregister
	// Version is the advertisement version assigned by the directory when
	// a register op supersedes an earlier advertisement of the same name.
	// Zero on v1 records (the replaying server assigns versions by count).
	Version uint64 `json:"ver,omitempty"`
	// Tenant is the admitted tenant behind a mutating op, "" on records
	// written before multi-tenancy (or by an open-mode daemon). Replay
	// rebuilds per-tenant live-service counts from it, which is what makes
	// tenant quotas durable across restarts.
	Tenant string `json:"tenant,omitempty"`
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Records is the number of decoded records delivered to the callback.
	Records int
	// Skipped counts complete but undecodable entries tolerated by the
	// lenient line readers (legacy JSON-lines histories may contain junk).
	Skipped int
	// TornTail reports that the history ended in an incomplete record — a
	// crash mid-append — which the backend dropped on open. All complete
	// records before the tear were recovered.
	TornTail bool
}

// Store is an append-only mutation log with snapshot-based compaction.
// Implementations must be safe for concurrent use; Append during Replay
// must not corrupt either (the replay sees a consistent prefix).
type Store interface {
	// Append durably persists one record at the end of the log. The
	// durability point is governed by the backend's sync policy
	// (Options.SyncEvery); Close and Compact always sync.
	Append(rec Record) error
	// Replay streams every record in append order into apply. A non-nil
	// error from apply aborts the replay and is returned verbatim with
	// the stats so far.
	Replay(apply func(rec Record) error) (ReplayStats, error)
	// Snapshot returns the canonical folded state of the log — exactly
	// Fold of the replayed records — without mutating the store.
	Snapshot() ([]Record, error)
	// Compact atomically rewrites the log to its canonical folded state:
	// after Compact, Replay yields what Snapshot returned before it, and
	// subsequent Appends extend the compacted log.
	Compact() error
	// Close syncs and releases the store. Close is idempotent; every
	// other method fails with ErrClosed afterwards.
	Close() error
}

// Prober is implemented by stores that can cheaply verify their backing
// medium is still usable (sdpd's health checker probes it).
type Prober interface {
	Healthy() error
}

// ErrClosed is returned by any operation on a closed store.
var ErrClosed = errors.New("store: closed")

// CorruptError reports storage damage that is not a torn tail: a broken
// file header or a checksum mismatch on a complete record. Opening stops
// rather than silently dropping data the operator may want to salvage.
type CorruptError struct {
	// Path locates the damaged medium ("" for in-memory stores).
	Path string
	// Offset is the byte offset of the damage, -1 when unknown.
	Offset int64
	// Reason describes the damage.
	Reason string
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "store"
	}
	if e.Offset >= 0 {
		return fmt.Sprintf("store: %s corrupt at byte %d: %s", where, e.Offset, e.Reason)
	}
	return fmt.Sprintf("store: %s corrupt: %s", where, e.Reason)
}

// VersionError reports a record or header written by a newer schema
// version than this binary understands. Downgrades are explicit — the
// operator migrates with sdpd -migrate-store instead of a silent
// misparse.
type VersionError struct {
	Got, Max int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("store: record version %d newer than supported %d (migrate with a newer sdpd)", e.Got, e.Max)
}

// Options tunes the durability behavior of the on-disk engine.
type Options struct {
	// SyncEvery groups fsyncs: the file is synced once every N appends
	// instead of on each one. 0 or 1 means per-entry sync (the default,
	// and the safest); Close and Compact always sync regardless, so a
	// cleanly shut down store loses nothing. Grouped sync trades up to
	// N-1 trailing records on power loss for an order of magnitude more
	// append throughput.
	SyncEvery int
}

// Interval normalizes SyncEvery to at least 1.
func (o Options) Interval() int {
	if o.SyncEvery < 1 {
		return 1
	}
	return o.SyncEvery
}

// Fold collapses a replayed history into its canonical live state — the
// shared compaction rule every backend and the migration path apply:
//
//   - add-ontology records come first, deduplicated by document, in
//     first-appearance order (advertisements need their code tables
//     before they can replay);
//   - then one register record per still-live service — the latest
//     document and version — in the order the services first went live
//     (a superseding register keeps its slot, a re-register after
//     deregister is a fresh arrival);
//   - deregister records of dropped services fold away entirely;
//   - records with unknown ops are preserved verbatim at the end, in
//     order, so a newer schema's data survives a round trip through an
//     older binary's compaction.
func Fold(history []Record) []Record {
	var ontologies []Record
	seenOnt := make(map[string]bool)
	var live []Record
	liveIdx := make(map[string]int)
	var unknown []Record
	for _, rec := range history {
		switch rec.Op {
		case OpAddOntology:
			if !seenOnt[rec.Doc] {
				seenOnt[rec.Doc] = true
				ontologies = append(ontologies, rec)
			}
		case OpRegister:
			name, ok := registerName(rec)
			if !ok {
				continue
			}
			if i, exists := liveIdx[name]; exists {
				live[i] = rec
				continue
			}
			liveIdx[name] = len(live)
			live = append(live, rec)
		case OpDeregister:
			i, exists := liveIdx[rec.Name]
			if !exists {
				continue
			}
			live = append(live[:i], live[i+1:]...)
			delete(liveIdx, rec.Name)
			for name, j := range liveIdx {
				if j > i {
					liveIdx[name] = j - 1
				}
			}
		default:
			unknown = append(unknown, rec)
		}
	}
	out := make([]Record, 0, len(ontologies)+len(live)+len(unknown))
	out = append(out, ontologies...)
	out = append(out, live...)
	out = append(out, unknown...)
	return out
}

// registerName extracts the service name a register record advertises.
// v2 records carry it explicitly; v1 journal lines only carried the
// document, so supersession falls back to the name="..." attribute of
// the document's root element — how every Amigo-S advertisement this
// repo produces names itself. Records whose document has no discernible
// name fold away (they cannot replay anyway).
func registerName(rec Record) (string, bool) {
	if rec.Name != "" {
		return rec.Name, true
	}
	const attr = `name="`
	doc := rec.Doc
	// Only look inside the root element's opening tag.
	end := strings.IndexByte(doc, '>')
	if end < 0 {
		return "", false
	}
	head := doc[:end]
	i := strings.Index(head, attr)
	if i < 0 {
		return "", false
	}
	rest := head[i+len(attr):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], j > 0
}

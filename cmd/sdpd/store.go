package main

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/store/memstore"
	"sariadne/internal/tenant"
)

// advertOwner resolves the tenant charged for an advertisement: the
// explicit record stamp when present (hint), else the name's namespace
// prefix. Legacy un-namespaced names belong to no tenant ("").
func advertOwner(name, hint string) string {
	if hint != "" {
		return hint
	}
	owner, _, _ := tenant.SplitName(name)
	return owner
}

// openStore opens the store -store selects: the one durable engine over
// the -state path, or the in-memory fake. A -state file that is not a
// boltlike store (a JSON-lines journal from an earlier release, say) is
// refused untouched with a store.CorruptError pointing at -migrate-store.
func openStore(kind, path string, opts store.Options) (store.Store, error) {
	if kind == "mem" {
		return memstore.New(), nil
	}
	return boltlike.Open(path, opts)
}

// migrateStore imports the legacy JSON-lines journal at src (a headerless
// v1 journal or a headered v2 file) into a fresh boltlike store at dst,
// folded to canonical form: the operator path behind
// `sdpd -state old.jsonl -migrate-store new`. src is only read.
func migrateStore(src, dst string) (store.MigrateStats, error) {
	from, err := os.Open(src)
	if err != nil {
		return store.MigrateStats{}, fmt.Errorf("opening source: %w", err)
	}
	defer from.Close()
	to, err := boltlike.Open(dst, store.Options{})
	if err != nil {
		return store.MigrateStats{}, fmt.Errorf("opening destination: %w", err)
	}
	stats, err := store.Import(from, to)
	if err != nil {
		_ = to.Close() // the migration failure is the diagnosis
		return stats, err
	}
	if err := to.Close(); err != nil {
		return stats, fmt.Errorf("closing destination: %w", err)
	}
	return stats, nil
}

// replayStats is what replaying the store at boot found.
type replayStats struct {
	applied, skipped int
	torn             bool
}

// replayStore feeds every persisted mutation back into the server:
// records the directory rejects are skipped with a count, a torn tail
// stops nothing, and a missing file is an empty history. newServer calls
// it, once, between opening the store and everything that reads the
// directory.
func (s *server) replayStore() (r replayStats, err error) {
	// No front end runs yet, but applyLocked's contract is that the caller
	// holds the server mutex, so hold it.
	s.mu.Lock()
	defer s.mu.Unlock()
	stats, err := s.store.Replay(func(rec store.Record) error {
		if err := s.applyLocked(rec, nil); err != nil {
			r.skipped++
			return nil
		}
		r.applied++
		return nil
	})
	r.skipped += stats.Skipped
	r.torn = stats.TornTail
	return r, err
}

// compact rewrites the store to its canonical folded state, bounding
// replay cost on long-lived daemons without waiting for a restart
// (-compact-every). It runs off the request path: Store implementations
// are internally synchronized, so Compact proceeds concurrently with
// request handling and never takes the server mutex.
func compact(st store.Store, log *slog.Logger) {
	start := time.Now()
	if err := st.Compact(); err != nil {
		// The store outlives a failed compaction (Compact is atomic); log
		// and try again next tick.
		log.Error("background compaction", "err", err)
		return
	}
	log.Debug("compacted store", "took", time.Since(start))
}

// applyLocked executes a persisted record against the backend, the
// advertisement version ledger and the per-tenant live-service counts. It
// is the one way a publish or withdrawal reaches memory: the live path
// calls it right after the append (with the advertisement it already
// prepared from rec.Doc), replay with ad nil for every record the store
// holds — which is what makes tenant quotas durable across restarts.
func (s *server) applyLocked(rec store.Record, ad *discovery.Advert) error {
	switch rec.Op {
	case store.OpRegister:
		if ad == nil {
			var err error
			if ad, err = s.backend.Prepare(rec.Doc); err != nil {
				return err
			}
		}
		if err := s.backend.Insert(ad); err != nil {
			return err
		}
		// The record names the advertisement in a string of its own (the
		// live path makes it so, a store decodes it so); records of early
		// releases carry no name, and ad.Name() is a piece of the document.
		name := rec.Name
		if name != ad.Name() {
			name = s.ownNameLocked(ad.Name())
		}
		fresh := !s.liveLocked(name)
		s.recordAdvertLocked(name, rec.Doc, rec.Version)
		if fresh {
			s.gate.ServiceLive(advertOwner(name, rec.Tenant), +1)
		}
		return nil
	case store.OpDeregister:
		if !s.backend.Deregister(rec.Name) {
			return errors.New("not registered")
		}
		s.dropAdvertLocked(rec.Name)
		s.gate.ServiceLive(advertOwner(rec.Name, rec.Tenant), -1)
		return nil
	case store.OpAddOntology:
		table, err := encodeOntology(strings.NewReader(rec.Doc))
		if err != nil {
			return err
		}
		s.backend.AddTable(table)
		return nil
	default:
		return errors.New("unknown store op " + string(rec.Op))
	}
}

// advertLedger is the version ledger of one advertised name: the number
// of every version ever published (oldest first), whether the newest is
// live, and the document of that one while it is. Superseding a name bumps
// the version and releases the superseded document; deregistering keeps
// the numbers listable, marks the name withdrawn and releases the last
// document. That is what the store keeps of a name after a compaction
// (store.Fold: the latest document and version), so a name costs one
// document however often it was published. The document is the string the
// backend parsed and stores — the ledger adds a reference, not a copy.
type advertLedger struct {
	name     string
	live     bool
	versions []uint64
	doc      string
}

// current returns the newest published version number (0 if none).
func (l *advertLedger) current() uint64 {
	if len(l.versions) == 0 {
		return 0
	}
	return l.versions[len(l.versions)-1]
}

// liveLocked reports whether name is currently advertised.
func (s *server) liveLocked(name string) bool {
	l := s.adverts[name]
	return l != nil && l.live
}

// nextVersionLocked returns the version the next publication under name
// will carry, without recording anything.
func (s *server) nextVersionLocked(name string) uint64 {
	if l := s.adverts[name]; l != nil {
		return l.current() + 1
	}
	return 1
}

// ownNameLocked returns an advertisement's name, as parsed out of its
// document, in a string that does not hold the document in memory: the
// ledger's, if the name was published before, or a copy.
func (s *server) ownNameLocked(name string) string {
	if l := s.adverts[name]; l != nil {
		return l.name
	}
	return strings.Clone(name)
}

// recordAdvertLocked appends one published version to the ledger, whose
// document takes the place of the one it supersedes. The ledger outlives
// the documents it lists and keeps name, which must not be a piece of doc
// (see ownNameLocked). version 0 (a v1 record) self-assigns the next
// number for the name, so replaying a v1 journal reconstructs the same
// version sequence the server would have assigned.
func (s *server) recordAdvertLocked(name, doc string, version uint64) {
	if version == 0 {
		version = s.nextVersionLocked(name)
	}
	l := s.adverts[name]
	if l == nil {
		l = &advertLedger{name: name}
		s.adverts[name] = l
	}
	l.versions = append(l.versions, version)
	l.live, l.doc = true, doc
}

// dropAdvertLocked marks a name withdrawn, keeping its version numbers
// listable and releasing its document.
func (s *server) dropAdvertLocked(name string) {
	if l := s.adverts[name]; l != nil {
		l.live, l.doc = false, ""
	}
}

// serviceEntry is one row of a GET /services page.
type serviceEntry struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

// servicesPage is the paginated live-advertisement listing.
type servicesPage struct {
	Services []serviceEntry `json:"services"`
	// NextCursor is the value to pass as ?cursor= for the following page;
	// empty when this page is the last.
	NextCursor string `json:"next_cursor,omitempty"`
	// Total is the full live-advertisement count, independent of paging.
	Total int `json:"total"`
}

// listServicesLocked pages through the live advertisements in name order.
// cursor is the last name of the previous page ("" starts from the top).
func (s *server) listServicesLocked(limit int, cursor string) servicesPage {
	names := make([]string, 0, len(s.adverts))
	for name, l := range s.adverts {
		if l.live {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	page := servicesPage{Services: []serviceEntry{}, Total: len(names)}
	start := 0
	if cursor != "" {
		// Resume strictly after the cursor name.
		start = sort.SearchStrings(names, cursor)
		if start < len(names) && names[start] == cursor {
			start++
		}
	}
	end := start + limit
	if end > len(names) {
		end = len(names)
	}
	for _, name := range names[start:end] {
		page.Services = append(page.Services, serviceEntry{Name: name, Version: s.adverts[name].current()})
	}
	// A full page always returns a cursor — even when it happens to be the
	// final page. The client's next probe comes back empty and cursorless,
	// which is the unambiguous end-of-listing signal; keying the cursor off
	// end < len(names) made an exactly-full final page indistinguishable
	// from a truncated listing.
	if end-start == limit && end > start {
		page.NextCursor = names[end-1]
	}
	return page
}

// advertVersion is one published version of an advertisement.
type advertVersion struct {
	Version uint64 `json:"version"`
	Doc     string `json:"doc,omitempty"`
}

// advertHistory is one name's ledger as GET /services/{name} serves it:
// every version number, with the document on the current version of a live
// name and on no other.
type advertHistory struct {
	Name     string          `json:"name"`
	Live     bool            `json:"live"`
	Versions []advertVersion `json:"versions"`
}

// serviceHistoryLocked returns the version ledger of one name, or nil.
// The result shares nothing the server will write, so it is safe to
// serialize outside the lock.
func (s *server) serviceHistoryLocked(name string) *advertHistory {
	l := s.adverts[name]
	if l == nil {
		return nil
	}
	h := &advertHistory{Name: l.name, Live: l.live, Versions: make([]advertVersion, len(l.versions))}
	for i, v := range l.versions {
		h.Versions[i].Version = v
	}
	if l.live {
		h.Versions[len(h.Versions)-1].Doc = l.doc
	}
	return h
}

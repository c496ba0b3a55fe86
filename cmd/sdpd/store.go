package main

import (
	"errors"
	"log/slog"
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
// refused untouched with a store.CorruptError.
func openStore(kind, path string, opts store.Options) (store.Store, error) {
	if kind == "mem" {
		return memstore.New(), nil
	}
	return boltlike.Open(path, opts)
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

// applyLocked executes a persisted record against the backend, whose
// directory keeps each name's version numbers, and the per-tenant
// live-service counts. It is the one way a publish or withdrawal reaches
// memory: the live path calls it right after the append (with the
// advertisement it already prepared from rec.Doc), replay with ad nil for
// every record the store holds — which is what makes tenant quotas durable
// across restarts. A record's version of 0 (a v1 record) takes the name's
// next, so replaying v1 records numbers them as the daemon did.
func (s *server) applyLocked(rec store.Record, ad *discovery.Advert) error {
	switch rec.Op {
	case store.OpRegister:
		if ad == nil {
			var err error
			if ad, err = s.backend.Prepare(rec.Doc); err != nil {
				return err
			}
		}
		// The record names the advertisement in a string of its own (the
		// live path makes it so, a store decodes it so); records of early
		// releases carry no name, and ad.Name() is a piece of the document.
		name := rec.Name
		if name != ad.Name() {
			name, _, _ = s.backend.Directory().Lookup(ad.Name())
		}
		fresh := !s.backend.Has(name)
		if err := s.backend.Insert(ad, name, rec.Version); err != nil {
			return err
		}
		if fresh {
			s.gate.ServiceLive(advertOwner(name, rec.Tenant), +1)
		}
		return nil
	case store.OpDeregister:
		if !s.backend.Deregister(rec.Name) {
			return errors.New("not registered")
		}
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

package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"sariadne/internal/profile"
)

// nameModel is what the record of one name should hold: every version
// number published under it and, while it is live, the document adopted
// last.
type nameModel struct {
	versions []uint64
	doc      string
	live     bool
}

// TestRecordLifecycleAgainstModel replays seeded random histories of
// register, re-register and deregister over twelve names, through Adopt with
// a document per publication whose service name is cut from the document,
// as a parsed advertisement's is, and looked up for a string of its own
// first, as the daemon does. A publication names no version, the next, or
// one past it, as a store compacted between publications can, or one already
// taken, which Adopt must refuse without changing anything. After every
// step the directory must agree with a map model: each name's version list
// and live bit, the document held — the very string adopted — the string
// Lookup gives, Has and Documents, and the listing at every page size, whose
// pages must join up into the sorted live set.
func TestRecordLifecycleAgainstModel(t *testing.T) {
	categories := []string{"Server", "DigitalServer", "StreamingServer", "VideoServer", "SoundServer", "GameServer"}
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("tenant%d/svc%02d", i%3, i)
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d, _ := newFixtureDirectory(t)
			want := make(map[string]*nameModel)
			keys := make(map[string]string) // the string Lookup gave each name's first publication
			withdrawn, skipped, stale, empty := 0, 0, 0, 0
			for step := 0; step < 300; step++ {
				name := names[rng.Intn(len(names))]
				m := want[name]
				switch {
				case rng.Intn(3) == 0:
					if got := d.Deregister(name); got != (m != nil && m.live) {
						t.Fatalf("step %d: Deregister(%s) = %v, the model holds %+v", step, name, got, m)
					}
					if m != nil && m.live {
						m.doc, m.live = "", false
						withdrawn++
					}
				default:
					doc := fmt.Sprintf("<service name=%q step=\"%d\"/>", name, step)
					at := strings.Index(doc, name)
					s := &profile.Service{Name: doc[at : at+len(name)], Provider: "host"}
					for c := range rng.Intn(3) {
						s.Provided = append(s.Provided, capability(fmt.Sprintf("%s.%d.%d", name, step, c), categories[rng.Intn(len(categories))], "", ""))
					}
					own, next, _ := d.Lookup(s.Name)
					if m == nil {
						m = &nameModel{}
						want[name], keys[name] = m, own
					}
					s.Name = own
					version := uint64(0)
					switch rng.Intn(4) {
					case 1:
						version = next
					case 2:
						version = next + 1
						skipped++
					case 3:
						if next == 1 {
							break
						}
						// The number a publication that got in since the
						// Lookup took: refused, and nothing changes.
						if err := d.Adopt(s, doc, next-1); !errors.Is(err, errStaleVersion) {
							t.Fatalf("step %d: Adopt(%s) as version %d of %v = %v, want errStaleVersion", step, name, next-1, m.versions, err)
						}
						stale++
						checkRecords(t, d, names, want, keys, step)
						continue
					}
					if err := d.Adopt(s, doc, version); err != nil {
						t.Fatal(err)
					}
					if version == 0 {
						version = next
					}
					m.versions, m.doc, m.live = append(m.versions, version), doc, true
					if len(s.Provided) == 0 {
						empty++
					}
				}
				checkRecords(t, d, names, want, keys, step)
			}
			if withdrawn < 20 || skipped < 20 || stale < 20 || empty < 20 {
				t.Fatalf("history too tame: %d withdrawals, %d skipped versions, %d stale ones, %d services providing nothing", withdrawn, skipped, stale, empty)
			}
		})
	}
}

// checkRecords compares the directory's records of names with the model.
func checkRecords(t *testing.T, d *Directory, names []string, want map[string]*nameModel, keys map[string]string, step int) {
	t.Helper()
	docs := d.Documents()
	var live []string
	for _, name := range names {
		m := want[name]
		versions, doc, isLive := d.History(name)
		own, next, lookedLive := d.Lookup(name)
		if m == nil {
			if versions != nil || doc != "" || isLive || lookedLive || next != 1 || own != name || d.Has(name) {
				t.Fatalf("step %d: %s was never published, yet History = %v, %q, %v and Lookup = %q, %d, %v", step, name, versions, doc, isLive, own, next, lookedLive)
			}
			continue
		}
		if !slices.Equal(versions, m.versions) || isLive != m.live || lookedLive != m.live || d.Has(name) != m.live || next != m.versions[len(m.versions)-1]+1 {
			t.Fatalf("step %d: %s has versions %v, live %v (Lookup %v, Has %v), next %d; the model %+v", step, name, versions, isLive, lookedLive, d.Has(name), next, m)
		}
		if unsafe.StringData(own) != unsafe.StringData(keys[name]) {
			t.Fatalf("step %d: Lookup(%s) gave another string than the one the name's record is keyed by", step, name)
		}
		stored, listed := docs[name]
		switch {
		case m.live && (unsafe.StringData(doc) != unsafe.StringData(m.doc) || unsafe.StringData(stored) != unsafe.StringData(m.doc)):
			t.Fatalf("step %d: %s holds %q (Documents %q), not the document adopted last", step, name, doc, stored)
		case !m.live && (doc != "" || listed):
			t.Fatalf("step %d: withdrawn %s still holds a document", step, name)
		}
		if m.live {
			live = append(live, name)
		}
	}
	slices.Sort(live)
	if len(docs) != len(live) || !slices.Equal(liveNames(d), live) {
		t.Fatalf("step %d: Documents holds %d names and the listing is %v; the model's live names are %v", step, len(docs), liveNames(d), live)
	}
	for limit := 1; limit <= max(1, len(live)); limit++ {
		var joined []string
		for cursor := ""; ; {
			page, versions, total := d.Page(cursor, limit)
			if total != len(live) || len(page) > limit {
				t.Fatalf("step %d: a page of %d after %q holds %d names of %d; %d are live", step, limit, cursor, len(page), total, len(live))
			}
			for i, name := range page {
				if m := want[name]; versions[i] != m.versions[len(m.versions)-1] {
					t.Fatalf("step %d: the listing gives %s version %d, the model %v", step, name, versions[i], m.versions)
				}
			}
			if joined = append(joined, page...); len(page) < limit {
				break
			}
			cursor = page[len(page)-1]
		}
		if !slices.Equal(joined, live) {
			t.Fatalf("step %d: pages of %d join up into %v, the live names are %v", step, limit, joined, live)
		}
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

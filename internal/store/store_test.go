package store_test

import (
	"reflect"
	"testing"

	"sariadne/internal/store"
)

func TestFold(t *testing.T) {
	ontA := store.Record{Op: store.OpAddOntology, Doc: `<ontology uri="a"/>`}
	ontB := store.Record{Op: store.OpAddOntology, Doc: `<ontology uri="b"/>`}
	regX1 := store.Record{Op: store.OpRegister, Name: "x", Doc: `<service name="x"/>`, Version: 1}
	regX2 := store.Record{Op: store.OpRegister, Name: "x", Doc: `<service name="x" provider="p"/>`, Version: 2}
	regY := store.Record{Op: store.OpRegister, Name: "y", Doc: `<service name="y"/>`, Version: 1}
	deregX := store.Record{Op: store.OpDeregister, Name: "x"}
	deregY := store.Record{Op: store.OpDeregister, Name: "y"}
	unknown := store.Record{Op: "checkpoint", Doc: "opaque"}

	cases := []struct {
		name    string
		history []store.Record
		want    []store.Record
	}{
		{"empty", nil, []store.Record{}},
		{"ontologies dedupe in order", []store.Record{ontB, ontA, ontB}, []store.Record{ontB, ontA}},
		{"supersede keeps slot", []store.Record{regX1, regY, regX2}, []store.Record{regX2, regY}},
		{"deregister folds away", []store.Record{regX1, regY, deregX}, []store.Record{regY}},
		{"re-register after deregister is a fresh arrival", []store.Record{regX1, regY, deregX, regX2}, []store.Record{regY, regX2}},
		{"ontologies precede services", []store.Record{regX1, ontA}, []store.Record{ontA, regX1}},
		{"unknown ops preserved at end", []store.Record{unknown, regX1, ontA}, []store.Record{ontA, regX1, unknown}},
		{"deregister of unknown name ignored", []store.Record{regX1, deregY}, []store.Record{regX1}},
		{"everything deregistered", []store.Record{regX1, regY, deregX, deregY}, []store.Record{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := store.Fold(tc.history)
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Fold = %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestFoldV1NameSniffing pins supersession for v1 records, which carry
// no explicit name: the doc's root-element name attribute identifies
// the advertisement.
func TestFoldV1NameSniffing(t *testing.T) {
	first := store.Record{Op: store.OpRegister, Doc: `<service name="cam" provider="hall"><provided/></service>`}
	second := store.Record{Op: store.OpRegister, Doc: `<service name="cam" provider="porch"><provided/></service>`}
	got := store.Fold([]store.Record{first, second})
	if len(got) != 1 || got[0] != second {
		t.Fatalf("v1 supersession failed: %+v", got)
	}
	// A v1 deregister matches the sniffed name.
	got = store.Fold([]store.Record{first, {Op: store.OpDeregister, Name: "cam"}})
	if len(got) != 0 {
		t.Fatalf("v1 deregister failed: %+v", got)
	}
	// A nameless register folds away — it could never replay.
	got = store.Fold([]store.Record{{Op: store.OpRegister, Doc: `<malformed`}})
	if len(got) != 0 {
		t.Fatalf("nameless register survived the fold: %+v", got)
	}
	// name="..." beyond the root tag must not be mistaken for the service
	// name.
	got = store.Fold([]store.Record{{Op: store.OpRegister, Doc: `<service id="1"><capability name="video"/></service>`}})
	if len(got) != 0 {
		t.Fatalf("nested attribute sniffed as service name: %+v", got)
	}
}

func TestOptionsInterval(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-1, 1}, {0, 1}, {1, 1}, {64, 64}} {
		if got := (store.Options{SyncEvery: tc.in}).Interval(); got != tc.want {
			t.Errorf("Interval(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestCorruptErrorMessage(t *testing.T) {
	e := &store.CorruptError{Path: "/tmp/s", Offset: 42, Reason: "bad crc"}
	if msg := e.Error(); msg != "store: /tmp/s corrupt at byte 42: bad crc" {
		t.Fatalf("message = %q", msg)
	}
	e = &store.CorruptError{Offset: -1, Reason: "bad magic"}
	if msg := e.Error(); msg != "store: store corrupt: bad magic" {
		t.Fatalf("message = %q", msg)
	}
}

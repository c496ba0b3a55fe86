package store_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sariadne/internal/store"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []store.Record{
		{Op: store.OpRegister, Doc: `<service name="a"/>`, Name: "a", Version: 3},
		{Op: store.OpDeregister, Name: "a"},
		{Op: store.OpAddOntology, Doc: `<ontology uri="u"/>`},
		{Op: "future-op", Doc: "payload"}, // unknown ops round-trip too
		{Op: store.OpRegister, Doc: `<service name="alice/a"/>`, Name: "alice/a", Version: 1, Tenant: "alice"},
		{Op: store.OpDeregister, Name: "alice/a", Tenant: "alice"},
	}
	for _, rec := range recs {
		data, err := store.EncodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, err := store.DecodeRecord(data)
		if err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		if got != rec {
			t.Fatalf("round trip: %+v -> %s -> %+v", rec, data, got)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rec := store.Record{Op: store.OpRegister, Doc: `<service name="a" x="<&>"/>`, Name: "a", Version: 1}
	a, err := store.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding is not deterministic: %s vs %s", a, b)
	}
	if bytes.ContainsRune(a, '\n') {
		t.Fatalf("encoded record contains a newline: %s", a)
	}
}

// TestEncodeTenantlessUnchanged pins the compatibility contract of the
// tenant field: a record without one encodes byte-identically to what
// pre-tenancy daemons wrote (no "tenant" key at all), so golden migration
// files and byte-stable snapshots survive the schema growth; a record
// with one carries it at the end of the line.
func TestEncodeTenantlessUnchanged(t *testing.T) {
	legacy, err := store.EncodeRecord(store.Record{Op: store.OpRegister, Doc: `<service name="a"/>`, Name: "a", Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	// json.Marshal HTML-escapes angle brackets; these are the bytes every
	// pre-tenancy daemon wrote.
	if want := `{"v":2,"op":"register","doc":"\u003cservice name=\"a\"/\u003e","name":"a","ver":2}`; string(legacy) != want {
		t.Fatalf("tenant-less encoding changed:\n got %s\nwant %s", legacy, want)
	}
	stamped, err := store.EncodeRecord(store.Record{Op: store.OpRegister, Doc: `<service name="alice/a"/>`, Name: "alice/a", Version: 1, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(stamped), `,"tenant":"alice"}`) {
		t.Fatalf("tenant not at end of line: %s", stamped)
	}
	// An old decoder's view of a stamped record: drop the field, keep the
	// rest — which is exactly what decoding into the v1 shape does here.
	rec, err := store.DecodeRecord([]byte(`{"op":"deregister","name":"alice/a","tenant":"alice"}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "alice" || rec.Name != "alice/a" {
		t.Fatalf("decoded %+v", rec)
	}
}

func TestEncodeRejectsEmptyOp(t *testing.T) {
	if _, err := store.EncodeRecord(store.Record{Doc: "x"}); err == nil {
		t.Fatal("encoding a record without an op succeeded")
	}
}

// TestDecodeV1JournalLine pins backward compatibility with the original
// journal format: no "v" field, HTML-escaped XML as json.Marshal wrote
// it, no advertisement version.
func TestDecodeV1JournalLine(t *testing.T) {
	line := `{"op":"register","doc":"<service name=\"cam\" provider=\"hall\"></service>"}`
	rec, err := store.DecodeRecord([]byte(line))
	if err != nil {
		t.Fatalf("decoding v1 line: %v", err)
	}
	want := store.Record{Op: store.OpRegister, Doc: `<service name="cam" provider="hall"></service>`}
	if rec != want {
		t.Fatalf("decoded %+v, want %+v", rec, want)
	}

	dereg, err := store.DecodeRecord([]byte(`{"op":"deregister","name":"cam"}`))
	if err != nil {
		t.Fatalf("decoding v1 deregister: %v", err)
	}
	if dereg.Op != store.OpDeregister || dereg.Name != "cam" || dereg.Version != 0 {
		t.Fatalf("v1 deregister = %+v", dereg)
	}
}

func TestDecodeFutureVersion(t *testing.T) {
	_, err := store.DecodeRecord([]byte(`{"v":3,"op":"register","doc":"x"}`))
	var ver *store.VersionError
	if !errors.As(err, &ver) {
		t.Fatalf("decode = %v, want VersionError", err)
	}
	if ver.Got != 3 || ver.Max != store.RecordVersion {
		t.Fatalf("VersionError = %+v", ver)
	}
	if !strings.Contains(ver.Error(), "migrate") {
		t.Fatalf("VersionError message gives no migration hint: %s", ver)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		``,
		`not json`,
		`{"doc":"no op"}`,
		`{"op":"register"} {"op":"register"}`, // two values on one line
		`[1,2,3]`,
	} {
		if _, err := store.DecodeRecord([]byte(bad)); err == nil {
			t.Errorf("decoding %q succeeded", bad)
		}
	}
}

func TestFileHeader(t *testing.T) {
	header := []byte(`{"format":"sdp-store","v":2}`) // what earlier releases wrote
	isHeader, err := store.DecodeFileHeader(header)
	if err != nil || !isHeader {
		t.Fatalf("own header not recognized: %v, %v", isHeader, err)
	}
	// A record line is not a header.
	isHeader, err = store.DecodeFileHeader([]byte(`{"v":2,"op":"register","doc":"x"}`))
	if err != nil || isHeader {
		t.Fatalf("record line recognized as header")
	}
	// A v1 journal line is not a header.
	isHeader, err = store.DecodeFileHeader([]byte(`{"op":"register","doc":"x"}`))
	if err != nil || isHeader {
		t.Fatalf("v1 line recognized as header")
	}
	// A future header is recognized but unsupported.
	isHeader, err = store.DecodeFileHeader([]byte(`{"format":"sdp-store","v":99}`))
	var ver *store.VersionError
	if !isHeader || !errors.As(err, &ver) {
		t.Fatalf("future header: isHeader=%v err=%v", isHeader, err)
	}
}

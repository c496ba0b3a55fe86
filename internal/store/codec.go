// The on-disk record codec. Two schema versions exist:
//
//	v1 — the original record: {"op":...,"doc":...,"name":...} with no
//	     version marker. Still decoded, so a record without "v" reads
//	     as it always did.
//	v2 — the current record: {"v":2,"op":...,...,"ver":N}. The leading
//	     "v" field names the schema; "ver" is the advertisement version
//	     the directory assigned.
//
// Encoding always writes the current version. Decoding accepts any
// version up to the current one and fails newer ones with a typed
// VersionError, so a rollback cannot silently misread records. The
// encoder goes through encoding/json with a fixed field order, making
// encoded bytes deterministic — the property the golden store file
// (testdata/v2_migrated.golden.bolt) and byte-stable canonical snapshots
// rest on.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// RecordVersion is the schema version EncodeRecord writes.
const RecordVersion = 2

// wireRecord is the serialized form: Record plus the schema marker. The
// field order here is the on-disk field order.
type wireRecord struct {
	V    int    `json:"v,omitempty"`
	Op   Op     `json:"op"`
	Doc  string `json:"doc,omitempty"`
	Name string `json:"name,omitempty"`
	Ver  uint64 `json:"ver,omitempty"`
	// Tenant rides at the end with omitempty, so tenant-less records
	// encode byte-identically to pre-tenancy daemons (the golden store
	// file stays valid) and old daemons decoding a tenant-stamped record
	// simply drop the field.
	Tenant string `json:"tenant,omitempty"`
}

// EncodeRecord serializes one record as a current-version JSON line
// (without the trailing newline). Encoding is deterministic: the same
// record always yields the same bytes.
func EncodeRecord(rec Record) ([]byte, error) {
	if rec.Op == "" {
		return nil, fmt.Errorf("store: encode: record has no op")
	}
	data, err := json.Marshal(wireRecord{
		V:      RecordVersion,
		Op:     rec.Op,
		Doc:    rec.Doc,
		Name:   rec.Name,
		Ver:    rec.Version,
		Tenant: rec.Tenant,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return data, nil
}

// DecodeRecord parses one serialized record of any supported schema
// version. A record from a newer schema fails with *VersionError; any
// other malformed input fails with a plain error, which every backend
// treats as damage.
func DecodeRecord(data []byte) (Record, error) {
	var w wireRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&w); err != nil {
		return Record{}, fmt.Errorf("store: decode: %w", err)
	}
	// A second JSON value on the line means this is not one record.
	if dec.More() {
		return Record{}, fmt.Errorf("store: decode: trailing data after record")
	}
	if w.V > RecordVersion {
		return Record{}, &VersionError{Got: w.V, Max: RecordVersion}
	}
	if w.Op == "" {
		return Record{}, fmt.Errorf("store: decode: record has no op")
	}
	return Record{Op: w.Op, Doc: w.Doc, Name: w.Name, Version: w.Ver, Tenant: w.Tenant}, nil
}

package discovery

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sariadne/internal/simnet"
	"sariadne/internal/telemetry"
)

// wireFixtures is one instance of every protocol message, with enough
// fields populated to make shallow encodings fail the comparison.
func wireFixtures() []any {
	return []any{
		RegisterRequest{ID: 7, Doc: []byte("<service/>")},
		RegisterReply{ID: 7, Err: "duplicate", Service: "printer"},
		DeregisterRequest{ID: 9, Service: "printer"},
		QueryRequest{ID: 3, Origin: "n0", Forwarded: true, Trace: 42, Doc: []byte("<request/>")},
		QueryReply{
			ID: 3, From: "n5", Partial: true,
			Hits:        []Hit{{Service: "ws", Capability: "print", Provider: "p", Distance: 2, For: "print", Directory: "n5"}},
			Unreachable: []simnet.NodeID{"n7"},
			Spans:       []telemetry.Span{{Trace: 42, Node: "n5", Event: telemetry.EventReply, Seq: 1}},
		},
		DirectoryAnnounce{From: "n3"},
		SummaryPush{From: "n3", Filter: []byte{1, 2, 3}, Count: 4},
		SummaryRequest{From: "n1"},
		ForwardAck{ID: 3, From: "n5"},
		RepublishSolicit{From: "n3"},
	}
}

func TestCodecRoundTripsEveryMessage(t *testing.T) {
	for _, msg := range wireFixtures() {
		frame, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		back, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Fatalf("round trip changed %T:\n in: %#v\nout: %#v", msg, msg, back)
		}
	}
}

// oldRegisterReplyFrame is an acknowledgement as a build from before
// RegisterReply.Service existed writes it.
var oldRegisterReplyFrame = append([]byte{WireVersion, tagRegisterReply}, `{"ID":7,"Err":""}`...)

// TestRegisterReplyServiceIsOptionalOnTheWire: the name a directory stored
// an advertisement under rides in the acknowledgement without moving
// WireVersion — a body without it still decodes, and a reply with none to
// give is the body an older build writes and reads.
func TestRegisterReplyServiceIsOptionalOnTheWire(t *testing.T) {
	got, err := DecodeMessage(oldRegisterReplyFrame)
	if err != nil {
		t.Fatal(err)
	}
	if want := (RegisterReply{ID: 7}); got != want {
		t.Fatalf("decoded %#v, want %#v", got, want)
	}
	frame, err := EncodeMessage(RegisterReply{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, oldRegisterReplyFrame) {
		t.Fatalf("a reply without a name encodes as %q, want %q", frame, oldRegisterReplyFrame)
	}
}

func TestCodecRejectsMalformedFrames(t *testing.T) {
	if _, err := EncodeMessage(struct{ X int }{1}); err == nil {
		t.Fatal("encoding an unknown type succeeded")
	}
	for _, frame := range [][]byte{
		nil,
		{},
		{0},                       // tag zero is reserved
		{200, '{', '}'},           // unknown tag
		{tagQueryRequest},         // empty body
		{tagQueryRequest, 'x'},    // not JSON
		{tagQueryReply, '[', ']'}, // wrong JSON shape
	} {
		if _, err := DecodeMessage(frame); err == nil {
			t.Fatalf("decoding %v succeeded", frame)
		}
	}
}

// TestCodecFixturesCoverEveryTag fails when a message type is added to
// the wire format without a round-trip fixture: every tag from 1 through
// the newest must encode from exactly one fixture.
func TestCodecFixturesCoverEveryTag(t *testing.T) {
	seen := make(map[byte]bool)
	for _, msg := range wireFixtures() {
		frame, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		tag := frame[1] // frame[0] is WireVersion
		if seen[tag] {
			t.Fatalf("two fixtures share tag %d", tag)
		}
		seen[tag] = true
	}
	for tag := byte(1); tag <= tagRepublishSolicit; tag++ {
		if !seen[tag] {
			t.Fatalf("no fixture encodes tag %d — extend wireFixtures for new message types", tag)
		}
	}
	if len(seen) != int(tagRepublishSolicit) {
		t.Fatalf("fixtures produced %d tags, want %d", len(seen), tagRepublishSolicit)
	}
}

// TestCodecRejectsForeignWireVersion pins the cross-version contract:
// frames minted by a build speaking another wire dialect come back as a
// typed *VersionError, never as a misparsed message.
func TestCodecRejectsForeignWireVersion(t *testing.T) {
	frame, err := EncodeMessage(DirectoryAnnounce{From: "n3"})
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != WireVersion {
		t.Fatalf("frame starts with %d, want WireVersion %d", frame[0], WireVersion)
	}
	frame[0] = WireVersion + 1
	_, err = DecodeMessage(frame)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("decode error = %v, want *VersionError", err)
	}
	if ve.Got != WireVersion+1 {
		t.Fatalf("Got = %d", ve.Got)
	}
	if ve.Error() == "" {
		t.Fatal("empty error text")
	}
	// A frame that is only a version byte errors without panicking.
	if _, err := DecodeMessage([]byte{WireVersion}); err == nil {
		t.Fatal("version-only frame decoded")
	}
}

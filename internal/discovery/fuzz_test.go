package discovery

import (
	"bytes"
	"reflect"
	"testing"

	"sariadne/internal/simnet"
	"sariadne/internal/transport"
)

// FuzzDecodeMessage hardens the full wire path a federated daemon reads:
// the transport's length/version envelope and the protocol codec behind
// it. Arbitrary bytes never panic either decoder, successful decodes
// round trip exactly, and every decoded message — malformed documents,
// replayed replies, stray acks — passes through a live node's handler
// without crashing it.
func FuzzDecodeMessage(f *testing.F) {
	for _, msg := range wireFixtures() {
		frame, err := EncodeMessage(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// The same frame as a transport datagram, so the corpus explores
		// both decoder layers.
		if wrapped, err := transport.EncodeFrame("127.0.0.1:8474", frame); err == nil {
			f.Add(wrapped)
		}
	}
	f.Add(oldRegisterReplyFrame)
	f.Add([]byte{})
	f.Add([]byte{tagQueryRequest, '{', '}'})
	f.Add([]byte{255, 0, 1, 2})
	f.Add([]byte{transport.FrameVersion, 0, 0, 0, 0, 0, 0})

	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, err := net.AddNode("fuzz-node")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := net.AddNode("fuzz-peer"); err != nil {
		f.Fatal(err)
	}
	if err := net.Connect("fuzz-node", "fuzz-peer"); err != nil {
		f.Fatal(err)
	}
	node := NewNode(ep, NewSemanticBackend(fixtureRegistry(f)), Config{})
	// The node is deliberately not Started: handleMessage runs inline so a
	// panic surfaces in the fuzzing process instead of a goroutine.

	f.Fuzz(func(t *testing.T, data []byte) {
		// The transport envelope decoder must be total, and any body it
		// accepts must survive an envelope round trip bit-exactly.
		if from, body, err := transport.DecodeFrame(data); err == nil {
			rewrapped, err := transport.EncodeFrame(from, body)
			if err != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", err)
			}
			from2, body2, err := transport.DecodeFrame(rewrapped)
			if err != nil {
				t.Fatalf("re-decode of frame failed: %v", err)
			}
			if from2 != from || !bytes.Equal(body2, body) {
				t.Fatalf("envelope round trip changed frame: %q/%x -> %q/%x", from, body, from2, body2)
			}
		}
		// Stream form: one well-formed write must read back as one frame.
		if _, _, err := transport.DecodeFrame(data); err == nil {
			var buf bytes.Buffer
			buf.Write(data)
			if _, _, _, err := transport.ReadFrame(&buf); err != nil || buf.Len() != 0 {
				t.Fatalf("stream reader disagreed with datagram decoder: err=%v leftover=%d", err, buf.Len())
			}
		}

		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		reenc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		back, err := DecodeMessage(reenc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Fatalf("round trip changed message:\n in: %#v\nout: %#v", msg, back)
		}
		node.handleMessage(simnet.Message{From: "fuzz-peer", To: "fuzz-node", Payload: msg})
	})
}

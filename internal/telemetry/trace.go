package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Span event names appended by directories while serving a traced query.
// The vocabulary is closed so tests and dashboards can match on it.
const (
	EventReceived   = "received"    // query arrived at a directory
	EventLocalMatch = "local-match" // local registry lookup finished
	EventBloomPrune = "bloom-prune" // peer skipped because its summary cannot match
	EventForward    = "forward"     // query forwarded to a peer directory
	EventReply      = "reply"       // reply (full or partial) sent back
	EventRetry      = "retry"       // forward retransmitted after a silent timeout
	EventUnreach    = "unreachable" // forward abandoned; peer marked unreachable
)

// Give-up reasons carried on EventUnreach spans: why the forward was
// abandoned. Like the event names, the vocabulary is closed.
const (
	// ReasonTimeout marks a forward abandoned because the whole
	// aggregation hit its query deadline while the forward was pending.
	ReasonTimeout = "timeout"
	// ReasonRetries marks a forward abandoned after exhausting its
	// per-peer retransmission budget; repeated occurrences evict the
	// peer from the backbone view.
	ReasonRetries = "retries-exhausted"
)

// Span is one hop-level event in a traced discovery query. Spans are
// appended by every directory that touches the query and travel back to
// the querier inside QueryReply messages.
type Span struct {
	Trace  uint64        `json:"trace"`            // query trace ID
	Node   string        `json:"node"`             // directory that recorded the span
	Event  string        `json:"event"`            // one of the Event* constants
	Peer   string        `json:"peer,omitempty"`   // remote party (source, prune/forward target)
	Hits   int           `json:"hits,omitempty"`   // result count for local-match / reply
	Dur    time.Duration `json:"dur,omitempty"`    // elapsed time for timed events
	Seq    uint64        `json:"seq"`              // per-process monotonic order
	Time   time.Time     `json:"time,omitzero"`    // wall-clock stamp (Seq stays the sort key)
	Reason string        `json:"reason,omitempty"` // give-up reason on unreachable spans
}

// traceSeq orders spans recorded within one process without consulting
// the wall clock (simulated runs compress time too far for timestamps
// to discriminate).
var traceSeq atomic.Uint64

// NewSpan builds a span stamped with the next process-wide sequence
// number and the current wall-clock time. The wall clock is for humans
// reading cross-process traces; ordering always uses Seq.
func NewSpan(trace uint64, node, event string) Span {
	return Span{Trace: trace, Node: node, Event: event, Seq: traceSeq.Add(1), Time: time.Now()}
}

// TraceIDGen mints non-zero trace IDs whose high 32 bits are a fixed
// per-generator entropy word and whose low 32 bits count up. Every
// process seeds its default generator with random entropy, so trace IDs
// minted by different federated daemons never collide (two generators
// with distinct entropy words emit disjoint ID sets) and cross-process
// span merging stays unambiguous.
type TraceIDGen struct {
	hi  uint64
	ctr atomic.Uint64
}

// NewTraceIDGen builds a generator over the given entropy word. Zero
// draws fresh random entropy (the normal case); tests that need
// reproducible IDs pass an explicit non-zero word.
func NewTraceIDGen(entropy uint32) *TraceIDGen {
	for entropy == 0 {
		entropy = randomEntropy()
	}
	return &TraceIDGen{hi: uint64(entropy) << 32}
}

// Next returns the generator's next trace ID. IDs are non-zero (zero
// means "untraced"): the entropy high word is never zero, so even a
// wrapped counter cannot produce zero.
func (g *TraceIDGen) Next() uint64 {
	return g.hi | (g.ctr.Add(1) & 0xffffffff)
}

// Entropy returns the generator's fixed high word, for diagnostics and
// cross-process collision tests.
func (g *TraceIDGen) Entropy() uint32 { return uint32(g.hi >> 32) }

// randomEntropy draws 32 bits from the OS entropy pool, falling back to
// the wall clock if that fails (a degraded but still useful mix).
func randomEntropy() uint32 {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint32(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint32(b[:])
}

// traceIDs is the process-wide generator behind NextTraceID.
var traceIDs atomic.Pointer[TraceIDGen]

func init() {
	traceIDs.Store(NewTraceIDGen(0))
}

// NextTraceID returns a non-zero trace ID unique to this process and,
// with overwhelming probability, across every process in a federation.
func NextTraceID() uint64 { return traceIDs.Load().Next() }

// TraceIDEntropy returns the current process entropy word mixed into
// every minted trace ID.
func TraceIDEntropy() uint32 { return traceIDs.Load().Entropy() }

// SetTraceIDEntropy replaces the process generator's entropy word and
// restarts its counter — the trace-ID analog of the seedable-rand
// injection the simulator uses, so seeded sdpsim runs print reproducible
// trace IDs. Zero reseeds randomly.
func SetTraceIDEntropy(entropy uint32) {
	traceIDs.Store(NewTraceIDGen(entropy))
}

// SortSpans orders spans by recording sequence. Spans from different
// processes interleave arbitrarily but each node's causal order holds.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
}

// FormatSpans renders spans one per line for logs and CLI output.
func FormatSpans(spans []Span) string {
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "  [%d] %s %s", s.Trace, s.Node, s.Event)
		if s.Peer != "" {
			fmt.Fprintf(&b, " peer=%s", s.Peer)
		}
		if s.Event == EventLocalMatch || s.Event == EventReply {
			fmt.Fprintf(&b, " hits=%d", s.Hits)
		}
		if s.Reason != "" {
			fmt.Fprintf(&b, " reason=%s", s.Reason)
		}
		if s.Dur > 0 {
			fmt.Fprintf(&b, " dur=%s", s.Dur)
		}
		if !s.Time.IsZero() {
			fmt.Fprintf(&b, " t=%s", s.Time.Format("15:04:05.000"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Package wire defines the message vocabulary and framing of the live
// HOURS prototype. Nodes exchange JSON-encoded request/response messages:
// admission (§3.1), routing-table construction via the parent (Algorithm
// 1), query forwarding (Algorithms 2-3), probing and active recovery
// (§4.3). Frames are length-prefixed so the same codec runs over TCP and
// in-memory pipes.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// Type tags a message.
type Type string

// Message types. Requests and responses pair by convention
// (X / XResult).
const (
	// TypeJoin asks a parent to admit a new child (§3.1 admission).
	TypeJoin Type = "join"
	// TypeJoinResult acknowledges (or refuses) admission.
	TypeJoinResult Type = "join_result"
	// TypeTableInfo asks the parent for the overlay size and the
	// caller's ring index (Algorithm 1, line 1).
	TypeTableInfo Type = "table_info"
	// TypeTableInfoResult carries (N, index).
	TypeTableInfoResult Type = "table_info_result"
	// TypeResolve asks the parent for the addresses of sibling indices
	// (Algorithm 1, line 6).
	TypeResolve Type = "resolve"
	// TypeResolveResult carries the resolved addresses.
	TypeResolveResult Type = "resolve_result"
	// TypeChildSample asks a sibling for a random sample of its children
	// (nephew pointers, §4.1).
	TypeChildSample Type = "child_sample"
	// TypeChildSampleResult carries the sampled child addresses.
	TypeChildSampleResult Type = "child_sample_result"
	// TypeQuery forwards a lookup (Algorithms 2-3).
	TypeQuery Type = "query"
	// TypeQueryResult carries the answer or failure.
	TypeQueryResult Type = "query_result"
	// TypeProbe is the §4.3 liveness probe.
	TypeProbe Type = "probe"
	// TypeProbeResult acknowledges a probe.
	TypeProbeResult Type = "probe_result"
	// TypeNotifyCCW tells a node about its (possibly new)
	// counter-clockwise neighbor (conventional recovery, §4.3).
	TypeNotifyCCW Type = "notify_ccw"
	// TypeNotifyCCWResult acknowledges the notification.
	TypeNotifyCCWResult Type = "notify_ccw_result"
	// TypeRepair is the §4.3 Repair message routed around the ring.
	TypeRepair Type = "repair"
	// TypeRepairResult acknowledges the repair hop.
	TypeRepairResult Type = "repair_result"
	// TypeStats asks a node for its operational counters.
	TypeStats Type = "stats"
	// TypeStatsResult carries the counters.
	TypeStatsResult Type = "stats_result"
	// TypeTraceGet asks a node for the spans it holds for one trace
	// (collection side of distributed tracing; see trace.go).
	TypeTraceGet Type = "trace_get"
	// TypeTraceGetResult carries the spans.
	TypeTraceGetResult Type = "trace_get_result"
	// TypeError reports a request failure.
	TypeError Type = "error"
)

// Message is one framed protocol message. TC, when non-zero, is the
// distributed-tracing context the request travels under: over one-shot
// framing it is an ordinary envelope field; over mux framing it is
// stripped and carried as a binary frame prefix instead (see
// AppendMuxFrame). Responses never carry a context.
//
// From identifies the caller for per-client admission control (§2/§3.1):
// clients stamp a stable identity of their choosing, forwarding nodes
// stamp their own address per hop. Peers that predate admission control
// ignore it; a missing From shares the anonymous bucket.
//
// DL is the remaining end-to-end deadline budget in milliseconds at the
// moment the request was written — wire-level deadline propagation, so a
// downstream hop can shed work whose deadline already expired instead of
// computing a dead answer. Over one-shot framing it is an envelope
// field; over mux framing it is stripped and carried as a binary frame
// prefix (see AppendMuxFrame). Responses never carry one.
type Message struct {
	Type    Type            `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
	TC      TraceContext    `json:"tc,omitzero"`
	From    string          `json:"from,omitempty"`
	DL      int64           `json:"dl,omitzero"`

	// body, when non-nil, is the typed payload of a message built by
	// Typed (or decoded by the binary codec): encoding is deferred to
	// write time, where the framing's codec serializes it directly into
	// the frame buffer — no intermediate RawMessage.
	body any
	// owned marks a body decoded from the wire: nothing else references
	// it, so Decode may assign it shallowly. Sender-built bodies are not
	// owned (the in-process Mem transport delivers the same Message value
	// to the handler) and Decode deep-copies their slices instead.
	owned bool
}

// New encodes payload into a Message of the given type, eagerly
// marshaling it to JSON. Production paths prefer Typed, which defers
// encoding to the framing's codec; New remains for callers (and tests)
// that want the JSON bytes in hand.
func New(t Type, payload any) (Message, error) {
	if payload == nil {
		return Message{Type: t}, nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return Message{}, fmt.Errorf("wire: encode %s payload: %w", t, err)
	}
	return Message{Type: t, Payload: raw}, nil
}

// Typed wraps a typed payload into a Message without encoding it: the
// codec of whatever connection the message is written to serializes the
// body straight into the frame buffer (binary on mux connections,
// single-pass JSON on one-shot ones). body should be a pointer to
// one of this package's payload structs; nil means a bodyless message.
// Encoding errors, impossible for the package's own payload types,
// surface at write time.
func Typed(t Type, body any) Message {
	return Message{Type: t, body: body}
}

// Decode unmarshals the payload into out. Typed bodies of hot types
// assign without a JSON round trip (see assignBody); everything else
// takes the JSON path.
func (m Message) Decode(out any) error {
	if m.body != nil {
		if assignBody(m.body, out, m.owned) {
			return nil
		}
		// Mismatched or cold-typed body: fall back through JSON, which
		// also preserves the historical type-coercion semantics.
		raw, err := json.Marshal(m.body)
		if err != nil {
			return fmt.Errorf("wire: decode %s payload: %w", m.Type, err)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("wire: decode %s payload: %w", m.Type, err)
		}
		return nil
	}
	if err := json.Unmarshal(m.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", m.Type, err)
	}
	return nil
}

// Join is the admission request.
type Join struct {
	Label string `json:"label"`
	Addr  string `json:"addr"`
}

// JoinResult acknowledges admission.
type JoinResult struct {
	Name string `json:"name"`
}

// TableInfo asks for overlay parameters; Name identifies the caller.
type TableInfo struct {
	Name string `json:"name"`
}

// TableInfoResult carries the overlay size and the caller's ring index.
type TableInfoResult struct {
	N     int `json:"n"`
	Index int `json:"index"`
}

// Resolve asks the parent to resolve sibling ring indices to addresses.
type Resolve struct {
	Indices []int `json:"indices"`
}

// Peer names one overlay member.
type Peer struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Addr  string `json:"addr"`
}

// ResolveResult carries resolved peers in request order.
type ResolveResult struct {
	Peers []Peer `json:"peers"`
}

// ChildSample asks a sibling for up to Count of its children, drawn
// randomly (nephew pointers).
type ChildSample struct {
	Count int `json:"count"`
}

// ChildSampleResult carries the sampled children.
type ChildSampleResult struct {
	Children []Peer `json:"children"`
}

// QueryMode is the forwarding mode carried by a query (Algorithm 3).
type QueryMode string

const (
	// ModeHierarchical means the query is on the prescribed top-down
	// path.
	ModeHierarchical QueryMode = "hierarchical"
	// ModeForward means clockwise greedy overlay forwarding.
	ModeForward QueryMode = "forward"
	// ModeBackward means counter-clockwise backward forwarding (§4.2).
	ModeBackward QueryMode = "backward"
	// ModeNephew means the hop followed a nephew pointer into the
	// next-level overlay after the OD node was found dead (§4.1). It
	// behaves like ModeHierarchical for forwarding decisions; the
	// distinct tag exists so traces show where a detour dropped a level.
	ModeNephew QueryMode = "nephew"
)

// HopRecord is one hop of a traced query: which node handled it, that
// node's ring index in its sibling overlay (-1 for the root or before
// BuildTable), the mode by which the query arrived, and how long the node
// spent on it (local handling plus the downstream call it chose).
type HopRecord struct {
	Node           string    `json:"node"`
	Index          int       `json:"index"`
	Mode           QueryMode `json:"mode"`
	DurationMicros int64     `json:"durationMicros,omitempty"`
}

// Query is a forwarded lookup. Overlay routing needs no explicit
// overlay-destination field: names are public, so every node derives the
// OD node at its own level by hashing the target's ancestor name — the
// same public-hash property the paper's topology-aware attacker exploits.
type Query struct {
	// Target is the full name whose answer is sought.
	Target string `json:"target"`
	// Mode is the current forwarding mode.
	Mode QueryMode `json:"mode"`
	// Hops counts forwarding hops so far.
	Hops int `json:"hops"`
	// TTL bounds forwarding; decremented per hop.
	TTL int `json:"ttl"`
	// Path records visited node names (diagnostics).
	Path []string `json:"path,omitempty"`
	// Trace asks every node on the path to append a HopRecord. Peers
	// that predate tracing ignore both fields and still answer; the
	// trace is then merely truncated at the first old hop.
	Trace bool `json:"trace,omitempty"`
	// HopTrace accumulates per-hop records when Trace is set.
	HopTrace []HopRecord `json:"hopTrace,omitempty"`
}

// QueryResult carries the outcome of a query. Cached marks an answer
// served from a client-side cache because the hierarchy was overloaded —
// possibly stale, but better than amplifying the overload with retries.
type QueryResult struct {
	Found  bool     `json:"found"`
	Answer string   `json:"answer,omitempty"`
	Hops   int      `json:"hops"`
	Path   []string `json:"path,omitempty"`
	Reason string   `json:"reason,omitempty"`
	Cached bool     `json:"cached,omitempty"`
	// HopTrace carries the per-hop records of a traced query.
	HopTrace []HopRecord `json:"hopTrace,omitempty"`
}

// NotifyCCW announces the sender as the receiver's counter-clockwise
// neighbor candidate.
type NotifyCCW struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Addr  string `json:"addr"`
}

// Repair is the §4.3 repair message, destined to its origin.
type Repair struct {
	OriginIndex int    `json:"originIndex"`
	OriginName  string `json:"originName"`
	OriginAddr  string `json:"originAddr"`
	Hops        int    `json:"hops"`
	TTL         int    `json:"ttl"`
}

// Stats carries a node's operational counters (TypeStatsResult). The
// named int64 fields are the legacy counter set, kept populated so old
// peers keep working; Metrics carries the full registry snapshot
// (counters, gauges, histogram summaries). Peers that predate the
// registry ignore the unknown field, and a missing Metrics decodes as
// nil — both directions interoperate.
type Stats struct {
	Name              string        `json:"name"`
	Index             int           `json:"index"`
	TableEntries      int           `json:"tableEntries"`
	Epoch             uint64        `json:"epoch"`
	QueriesAnswered   int64         `json:"queriesAnswered"`
	QueriesForwarded  int64         `json:"queriesForwarded"`
	ProbesSent        int64         `json:"probesSent"`
	RepairsOriginated int64         `json:"repairsOriginated"`
	EntriesCreated    int64         `json:"entriesCreated"`
	Metrics           *obs.Snapshot `json:"metrics,omitempty"`
}

// ErrCodeOverloaded marks a deliberate admission-control rejection: the
// server shed the request to protect itself and the caller should back
// off for RetryAfterMillis before retrying (§2 admission control).
const ErrCodeOverloaded = "overloaded"

// Error carries a request failure. Code, when set, classifies the
// failure machine-readably so typed errors survive the wire; peers that
// predate codes ignore it and fall back to the Reason string.
type Error struct {
	Reason string `json:"reason"`
	Code   string `json:"code,omitempty"`
	// RetryAfterMillis is the server's backoff hint for ErrCodeOverloaded.
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
}

// maxFrame bounds decoded frames; prototype messages are small, so a large
// frame indicates corruption or abuse.
const maxFrame = 1 << 20

// encodeFrame marshals a message body and enforces the frame limit. It
// encodes envelope and payload in a single pass through the pooled JSON
// encoder (see appendJSONMessage), so even eagerly built messages pay
// one marshal, not two.
func encodeFrame(m Message) ([]byte, error) {
	body, err := appendJSONMessage(nil, m)
	if err != nil {
		return nil, err
	}
	if len(body) > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(body), maxFrame)
	}
	return body, nil
}

// decodeFrame unmarshals a frame body.
func decodeFrame(body []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return Message{}, fmt.Errorf("wire: unmarshal frame: %w", err)
	}
	return m, nil
}

// WriteFrame writes one length-prefixed message (one-shot framing: a
// single request or response per connection direction).
func WriteFrame(w io.Writer, m Message) error {
	body, err := encodeFrame(m)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("wire: write frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message.
func ReadFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, fmt.Errorf("wire: read frame header: %w", err)
	}
	return ReadFrameWithHeader(r, hdr)
}

// ReadFrameWithHeader completes a one-shot frame read whose 4-byte
// length prefix has already been consumed — the sniffing listener reads
// the prefix to distinguish mux connections (see IsMuxPreface) and
// finishes the one-shot path here.
func ReadFrameWithHeader(r io.Reader, hdr [4]byte) (Message, error) {
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return Message{}, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, fmt.Errorf("wire: read frame body: %w", err)
	}
	return decodeFrame(body)
}

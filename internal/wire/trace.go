package wire

// Distributed-tracing vocabulary: the trace context that rides every
// traced request across the hierarchy, the span records nodes keep in
// their ring-buffer stores, and the collection RPC that lets a client
// (hoursq -trace) reassemble the cross-node span tree.
//
// Propagation is dual-format. Over one-shot framing the context travels
// as an ordinary JSON envelope field on Message ("tc"). Over mux framing
// it is stripped from the body and carried as a fixed 17-byte binary
// prefix announced by a flag in the frame header (see mux.go).

import (
	"encoding/binary"
	"fmt"
)

// FlagSampled marks a trace the head sampler selected: every node on the
// path records spans for it. A context with the flag clear is a
// "decided, not sampled" marker — downstream hops must neither record
// nor re-draw the sampling decision.
const FlagSampled byte = 1 << 0

// TraceContextLen is the binary encoding's size: trace ID, span ID, flags.
const TraceContextLen = 8 + 8 + 1

// TraceContext identifies the position of one request in a distributed
// trace: the trace it belongs to, the span that caused it (the caller's
// span, which the receiver adopts as parent), and the sampling decision.
// The zero value means "no trace context" (an undecided request).
type TraceContext struct {
	TraceID uint64 `json:"traceId"`
	SpanID  uint64 `json:"spanId"`
	Flags   byte   `json:"flags,omitempty"`
}

// IsZero reports whether no context is present (trace IDs are never 0).
func (tc TraceContext) IsZero() bool { return tc.TraceID == 0 }

// Sampled reports whether spans must be recorded for this trace.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// AppendBinary appends the fixed-size binary encoding:
// [traceID:8][spanID:8][flags:1], big-endian.
func (tc TraceContext) AppendBinary(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, tc.TraceID)
	b = binary.BigEndian.AppendUint64(b, tc.SpanID)
	return append(b, tc.Flags)
}

// ParseTraceContext decodes the fixed-size binary encoding.
func ParseTraceContext(b []byte) (TraceContext, error) {
	if len(b) < TraceContextLen {
		return TraceContext{}, fmt.Errorf("wire: trace context of %d bytes, want %d", len(b), TraceContextLen)
	}
	return TraceContext{
		TraceID: binary.BigEndian.Uint64(b[0:8]),
		SpanID:  binary.BigEndian.Uint64(b[8:16]),
		Flags:   b[16],
	}, nil
}

// SpanAttr is one key/value annotation on a span. A slice (not a map)
// keeps encoding deterministic and preserves the order annotations were
// made, including repeated keys from forwarding retries.
type SpanAttr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanRecord is the wire form of one finished span, as served by the
// trace-collection RPC and /debug/traces. ParentID 0 marks a root span;
// a ParentID absent from the collected set marks a span whose parent
// lives on an uncollected (or pre-tracing) peer.
type SpanRecord struct {
	TraceID       uint64     `json:"traceId"`
	SpanID        uint64     `json:"spanId"`
	ParentID      uint64     `json:"parentId,omitempty"`
	Name          string     `json:"name"`
	Node          string     `json:"node,omitempty"`
	StartUnixNano int64      `json:"startUnixNano"`
	DurationNanos int64      `json:"durationNanos"`
	Err           string     `json:"err,omitempty"`
	Attrs         []SpanAttr `json:"attrs,omitempty"`
}

// Attr returns the value of the first attribute with the given key.
func (s SpanRecord) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TraceGet asks a node for every span it holds for one trace.
type TraceGet struct {
	TraceID uint64 `json:"traceId"`
}

// TraceGetResult carries the node's spans for the requested trace.
type TraceGetResult struct {
	Spans []SpanRecord `json:"spans,omitempty"`
}

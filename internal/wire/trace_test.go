package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceContextBinaryRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef, Flags: FlagSampled}
	b := tc.AppendBinary(nil)
	if len(b) != TraceContextLen {
		t.Fatalf("encoded length = %d, want %d", len(b), TraceContextLen)
	}
	got, err := ParseTraceContext(b)
	if err != nil {
		t.Fatalf("ParseTraceContext: %v", err)
	}
	if got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
	if _, err := ParseTraceContext(b[:TraceContextLen-1]); err == nil {
		t.Fatal("short buffer: want error")
	}
}

func TestTraceContextPredicates(t *testing.T) {
	var zero TraceContext
	if !zero.IsZero() || zero.Sampled() {
		t.Fatalf("zero context: IsZero=%v Sampled=%v", zero.IsZero(), zero.Sampled())
	}
	unsampled := TraceContext{TraceID: 7, SpanID: 9}
	if unsampled.IsZero() || unsampled.Sampled() {
		t.Fatalf("unsampled context: IsZero=%v Sampled=%v", unsampled.IsZero(), unsampled.Sampled())
	}
	sampled := TraceContext{TraceID: 7, SpanID: 9, Flags: FlagSampled}
	if !sampled.Sampled() {
		t.Fatal("sampled context: Sampled=false")
	}
}

// A zero TC must vanish from the JSON envelope entirely — old peers see
// byte-identical frames for untraced traffic, and traced traffic carries
// a "tc" object they ignore.
func TestMessageEnvelopeTCOmitted(t *testing.T) {
	m := Message{Type: TypeProbe}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "tc") {
		t.Fatalf("zero TC leaked into envelope: %s", raw)
	}

	m.TC = TraceContext{TraceID: 1, SpanID: 2, Flags: FlagSampled}
	raw, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"tc"`) {
		t.Fatalf("non-zero TC missing from envelope: %s", raw)
	}
	var back Message
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TC != m.TC {
		t.Fatalf("envelope TC round trip = %+v, want %+v", back.TC, m.TC)
	}
}

// V1 framing carries the context as the envelope field.
func TestV1FrameCarriesTraceContext(t *testing.T) {
	var buf bytes.Buffer
	m := Message{Type: TypeQuery, TC: TraceContext{TraceID: 11, SpanID: 22, Flags: FlagSampled}}
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TC != m.TC {
		t.Fatalf("v1 TC = %+v, want %+v", got.TC, m.TC)
	}
}

// Mux framing carries a request's context as the flagged binary prefix
// and restores it on read; the body must not carry it redundantly (the
// byte layout is pinned by TestMuxFrameFlags).
func TestMuxTracedFrameRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xaaaa, SpanID: 0xbbbb, Flags: FlagSampled}
	m := Message{Type: TypeQuery, Payload: json.RawMessage(`{"target":"x"}`), TC: tc}

	var buf bytes.Buffer
	if err := writeMuxFrame(&buf, FrameRequest, 42, m); err != nil {
		t.Fatal(err)
	}
	untraced := m
	untraced.TC = TraceContext{}
	plain, err := AppendMuxFrame(nil, FrameRequest, 42, untraced)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), len(plain)+TraceContextLen; got != want {
		t.Fatalf("traced frame is %d bytes, want the untraced frame plus the %d-byte prefix = %d", got, TraceContextLen, want)
	}

	kind, id, got, err := readMuxFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameRequest || id != 42 {
		t.Fatalf("kind/id = %v/%d, want request/42", kind, id)
	}
	if got.TC != tc {
		t.Fatalf("TC = %+v, want %+v", got.TC, tc)
	}
	if got.Type != m.Type || string(got.Payload) != string(m.Payload) {
		t.Fatalf("message = %+v, want %+v", got, m)
	}
}

func TestSpanRecordAttr(t *testing.T) {
	s := SpanRecord{Attrs: []SpanAttr{{Key: "peer", Value: "a"}, {Key: "peer", Value: "b"}}}
	if v, ok := s.Attr("peer"); !ok || v != "a" {
		t.Fatalf("Attr(peer) = %q,%v; want first value %q", v, ok, "a")
	}
	if _, ok := s.Attr("missing"); ok {
		t.Fatal("Attr(missing) = ok")
	}
}

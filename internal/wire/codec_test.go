package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// codecSampleMessages is one representative typed message per hot type
// plus cold-type and legacy-payload shapes, shared by the round-trip
// tests and the seed corpus.
func codecSampleMessages() []Message {
	return []Message{
		Typed(TypeQuery, &Query{
			Target: "n2-1.n1-0", Mode: ModeHierarchical, Hops: 3, TTL: 12,
			Path: []string{".", "n1-0"}, Trace: true,
			HopTrace: []HopRecord{
				{Node: ".", Index: -1, Mode: ModeHierarchical, DurationMicros: 41},
				{Node: "n1-0", Index: 2, Mode: ModeForward},
			},
		}),
		Typed(TypeQueryResult, &QueryResult{
			Found: true, Answer: "10.0.0.7", Hops: 4,
			Path:     []string{".", "n1-0", "n2-1.n1-0"},
			HopTrace: []HopRecord{{Node: "n2-1.n1-0", Index: 0, Mode: ModeNephew, DurationMicros: 9}},
		}),
		Typed(TypeQueryResult, &QueryResult{Reason: "ttl exhausted", Cached: true}),
		{Type: TypeProbe},
		{Type: TypeProbeResult},
		Typed(TypeChildSample, &ChildSample{Count: 4}),
		Typed(TypeChildSampleResult, &ChildSampleResult{Children: []Peer{
			{Index: 0, Name: "n2-0.n1-1", Addr: "127.0.0.1:7103"},
			{Index: 3, Name: "n2-3.n1-1", Addr: "127.0.0.1:7107"},
		}}),
		Typed(TypeNotifyCCW, &NotifyCCW{Index: 5, Name: "n1-5", Addr: "127.0.0.1:7005"}),
		{Type: TypeNotifyCCWResult},
		Typed(TypeRepair, &Repair{OriginIndex: 2, OriginName: "n1-2", OriginAddr: "127.0.0.1:7002", Hops: 1, TTL: 8}),
		{Type: TypeRepairResult},
		Typed(TypeError, &Error{Reason: "shed", Code: ErrCodeOverloaded, RetryAfterMillis: 25}),
		// Envelope fields ride every codec.
		{Type: TypeQuery, From: "client-7", DL: 1234,
			Payload: []byte(`{"target":"a.b","mode":"forward","ttl":9}`)},
		// Cold types fall back to JSON bodies inside the binary envelope.
		Typed(TypeJoin, &Join{Label: "n2-9", Addr: "127.0.0.1:7210"}),
		Typed(TypeResolveResult, &ResolveResult{Peers: []Peer{{Index: 1, Name: "n1-1", Addr: "127.0.0.1:7001"}}}),
		// Legacy eager messages: raw payload bytes, no typed body.
		{Type: TypeTableInfo, Payload: []byte(`{"name":"n2-1.n1-0"}`)},
		{Type: TypeStats},
	}
}

// decodedEqual compares two messages by what a receiver can observe:
// type, envelope fields, and the payload decoded into its Go value (a
// typed body and its JSON encoding are the same message).
func decodedEqual(t *testing.T, a, b Message) bool {
	t.Helper()
	if a.Type != b.Type || a.From != b.From || a.DL != b.DL || a.TC != b.TC {
		return false
	}
	var av, bv any
	if err := a.Decode(&av); err != nil {
		av = nil
	}
	if err := b.Decode(&bv); err != nil {
		bv = nil
	}
	// Normalize both through JSON: typed bodies vs raw payload bytes.
	aj, _ := json.Marshal(av)
	bj, _ := json.Marshal(bv)
	return bytes.Equal(aj, bj)
}

// TestCodecRoundTrip pins that every sample message survives both codecs
// and that the two decode to the same observable message.
func TestCodecRoundTrip(t *testing.T) {
	for _, m := range codecSampleMessages() {
		for name, c := range map[string]Codec{"json": JSON, "binary": Binary} {
			enc, err := c.AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("%s %s: encode: %v", name, m.Type, err)
			}
			got, err := c.DecodeMessage(enc)
			if err != nil {
				t.Fatalf("%s %s: decode: %v", name, m.Type, err)
			}
			if !decodedEqual(t, m, got) {
				t.Errorf("%s %s: round trip changed the message:\n in: %+v\nout: %+v", name, m.Type, m, got)
			}
		}
	}
}

// TestCodecDifferential pins binary and JSON to identical observable
// decodes for every sample message — the invariant FuzzCodecRoundTrip
// extends to arbitrary inputs.
func TestCodecDifferential(t *testing.T) {
	for _, m := range codecSampleMessages() {
		je, err := JSON.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("json encode %s: %v", m.Type, err)
		}
		be, err := Binary.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("binary encode %s: %v", m.Type, err)
		}
		jm, err := JSON.DecodeMessage(je)
		if err != nil {
			t.Fatalf("json decode %s: %v", m.Type, err)
		}
		bm, err := Binary.DecodeMessage(be)
		if err != nil {
			t.Fatalf("binary decode %s: %v", m.Type, err)
		}
		if !decodedEqual(t, jm, bm) {
			t.Errorf("%s: codecs disagree:\njson:   %+v\nbinary: %+v", m.Type, jm, bm)
		}
	}
}

// TestBinaryEnvelopeFields pins the envelope fields (From, TC, DL) through
// the binary codec, including the insurance bits the mux layer normally
// strips into frame prefixes.
func TestBinaryEnvelopeFields(t *testing.T) {
	m := Typed(TypeQuery, &Query{Target: "x.y", Mode: ModeForward, TTL: 3})
	m.From = "client-9"
	m.TC = TraceContext{TraceID: 0xfeed, SpanID: 0xbeef, Flags: 1}
	m.DL = 950
	enc, err := Binary.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.TC != m.TC || got.DL != m.DL {
		t.Errorf("envelope fields lost: got from=%q tc=%+v dl=%d", got.From, got.TC, got.DL)
	}
	var q Query
	if err := got.Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Target != "x.y" || q.Mode != ModeForward || q.TTL != 3 {
		t.Errorf("body lost: %+v", q)
	}
}

// TestBinaryUnknownTypeString pins that a Type with no registered ID
// still crosses a binary connection (string-typed envelope) — forward
// compatibility with vocabulary added by newer builds.
func TestBinaryUnknownTypeString(t *testing.T) {
	m := Message{Type: Type("future_thing"), Payload: []byte(`{"x":1}`)}
	enc, err := Binary.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip changed the message: %+v", got)
	}
}

// TestBinaryLegacyPayloadFallback pins that an eagerly built wire.New
// message — raw JSON payload, no typed body — rides a binary connection
// unchanged: the envelope carries the payload bytes with the typed-body
// flag clear.
func TestBinaryLegacyPayloadFallback(t *testing.T) {
	m, err := New(TypeQuery, Query{Target: "a.b", Mode: ModeBackward, TTL: 7})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Binary.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	var q Query
	if err := got.Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Target != "a.b" || q.Mode != ModeBackward || q.TTL != 7 {
		t.Errorf("legacy payload lost: %+v", q)
	}
}

// TestBinaryMismatchedBodyFallsBackToJSON pins that a Typed message whose
// body does not match its type's registered codec still encodes (JSON
// body inside the binary envelope) rather than failing or corrupting.
func TestBinaryMismatchedBodyFallsBackToJSON(t *testing.T) {
	m := Typed(TypeQuery, &Error{Reason: "wrong body"}) // deliberate mismatch
	enc, err := Binary.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	var e Error
	if err := got.Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Reason != "wrong body" {
		t.Errorf("fallback body lost: %+v", e)
	}
}

// TestBinaryDecodeRejectsGarbage pins the decoder errors (never panics)
// on truncated and trailing-byte inputs.
func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	valid, err := Binary.AppendMessage(nil, Typed(TypeQuery, &Query{Target: "a.b", TTL: 2}))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		valid[:1],
		valid[:len(valid)-1],
		append(append([]byte{}, valid...), 0xff),
		{binTypedBody, 99}, // unknown type id
	}
	for _, b := range cases {
		if _, err := Binary.DecodeMessage(b); err == nil {
			t.Errorf("decode(%x) accepted garbage", b)
		}
	}
}

// TestDecodeClonesUnownedSlices pins the Mem-transport aliasing rule: a
// handler decoding a sender-built Typed message gets its own copy of the
// slices, so mutating them cannot race the sender.
func TestDecodeClonesUnownedSlices(t *testing.T) {
	orig := &Query{Target: "a.b", Path: []string{"."}, HopTrace: []HopRecord{{Node: "."}}}
	m := Typed(TypeQuery, orig)
	var q Query
	if err := m.Decode(&q); err != nil {
		t.Fatal(err)
	}
	q.Path[0] = "mutated"
	q.HopTrace[0].Node = "mutated"
	if orig.Path[0] != "." || orig.HopTrace[0].Node != "." {
		t.Error("decoded slices alias the sender's body")
	}
	// Wire-decoded bodies are owned and assign shallowly (no clone): pin
	// that Decode still yields the right values.
	enc, err := Binary.AppendMessage(nil, Typed(TypeQuery, orig))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	var q2 Query
	if err := got.Decode(&q2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q2.Path, orig.Path) {
		t.Errorf("owned decode path = %v, want %v", q2.Path, orig.Path)
	}
}

// TestEncodeQueryZeroAllocs pins the hot-path claim: encoding a typed
// query body into a pre-sized buffer allocates nothing.
func TestEncodeQueryZeroAllocs(t *testing.T) {
	q := &Query{
		Target: "n2-1.n1-0", Mode: ModeHierarchical, Hops: 3, TTL: 12,
		Path: []string{".", "n1-0"},
	}
	m := Typed(TypeQuery, q)
	dst := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		dst, err = Binary.AppendMessage(dst[:0], m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Binary.AppendMessage(query) allocates %.1f/op, want 0", allocs)
	}
}

// TestEncodeQueryResultZeroAllocs extends the zero-alloc pin to the
// response side of the hot exchange.
func TestEncodeQueryResultZeroAllocs(t *testing.T) {
	r := &QueryResult{Found: true, Answer: "10.0.0.7", Hops: 4, Path: []string{".", "n1-0"}}
	m := Typed(TypeQueryResult, r)
	dst := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		dst, err = Binary.AppendMessage(dst[:0], m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Binary.AppendMessage(query_result) allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendMuxFrameBinaryZeroAllocs pins the whole frame encode — header,
// prefixes, envelope, body — at zero allocations into a warm buffer, the
// exact per-request cost of the coalesced write path.
func TestAppendMuxFrameBinaryZeroAllocs(t *testing.T) {
	q := &Query{Target: "n2-1.n1-0", Mode: ModeHierarchical, TTL: 12}
	m := Typed(TypeQuery, q)
	m.DL = 500
	dst := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		dst, err = AppendMuxFrame(dst[:0], FrameRequest, 7, m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMuxFrame(query) allocates %.1f/op, want 0", allocs)
	}
}

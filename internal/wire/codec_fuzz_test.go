package wire

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzBuildMessage turns the fuzzer's primitives into one wire Message,
// cycling through the whole vocabulary: hot typed bodies, bodyless
// types, cold types riding the JSON fallback, legacy raw payloads, and
// unknown string-typed messages. Strings are sanitized to valid UTF-8
// first: json.Marshal coerces invalid sequences to U+FFFD while the
// binary codec preserves bytes, and the differential invariant is only
// promised for the UTF-8 vocabulary the protocol actually speaks.
func fuzzBuildMessage(kind uint8, s1, s2, s3, from string, i1, i2, i3, dl int64, tcID uint64, b1, b2 bool) Message {
	s1 = strings.ToValidUTF8(s1, "�")
	s2 = strings.ToValidUTF8(s2, "�")
	s3 = strings.ToValidUTF8(s3, "�")
	from = strings.ToValidUTF8(from, "�")

	var m Message
	switch kind % 11 {
	case 0:
		q := &Query{Target: s1, Mode: QueryMode(s2), Hops: int(i1), TTL: int(i2), Trace: b1}
		if b2 {
			q.Path = []string{s3, s1}
			q.HopTrace = []HopRecord{
				{Node: s3, Index: int(i1), Mode: QueryMode(s2), DurationMicros: i3},
				{Node: s1, Index: -1, Mode: ModeBackward},
			}
		}
		m = Typed(TypeQuery, q)
	case 1:
		r := &QueryResult{Found: b1, Answer: s1, Hops: int(i1), Reason: s2, Cached: b2}
		if b1 {
			r.Path = []string{s3}
			r.HopTrace = []HopRecord{{Node: s3, Index: int(i2), Mode: QueryMode(s2), DurationMicros: i3}}
		}
		m = Typed(TypeQueryResult, r)
	case 2:
		m = Message{Type: TypeProbe}
	case 3:
		m = Typed(TypeChildSample, &ChildSample{Count: int(i1)})
	case 4:
		cs := &ChildSampleResult{}
		if b1 {
			cs.Children = []Peer{{Index: int(i1), Name: s1, Addr: s2}, {Index: int(i2), Name: s3, Addr: s1}}
		}
		m = Typed(TypeChildSampleResult, cs)
	case 5:
		m = Typed(TypeNotifyCCW, &NotifyCCW{Index: int(i1), Name: s1, Addr: s2})
	case 6:
		m = Typed(TypeRepair, &Repair{OriginIndex: int(i1), OriginName: s1, OriginAddr: s2, Hops: int(i2), TTL: int(i3)})
	case 7:
		m = Typed(TypeError, &Error{Reason: s1, Code: s2, RetryAfterMillis: i1})
	case 8:
		m = Typed(TypeJoin, &Join{Label: s1, Addr: s2}) // cold type: JSON fallback body
	case 9:
		// Legacy eager message: raw payload bytes, no typed body.
		m, _ = New(TypeQuery, Query{Target: s1, Mode: QueryMode(s2), TTL: int(i1)})
	default:
		// Unknown vocabulary: string-typed envelope.
		t := strings.ToValidUTF8("x_"+s1, "�")
		m, _ = New(Type(t), Join{Label: s2, Addr: s3})
	}
	m.From = from
	if dl > 0 {
		m.DL = dl
	}
	if tcID != 0 {
		m.TC = TraceContext{TraceID: tcID, SpanID: tcID ^ 0x9e3779b97f4a7c15, Flags: 1}
	}
	return m
}

// FuzzCodecRoundTrip is the differential fuzz of the two codecs: any
// message built from the protocol vocabulary must decode to the same
// observable message whether it crossed the wire as JSON or binary, and
// the binary encoding must also survive full mux framing, where trace
// context and deadline ride binary frame prefixes instead of the
// envelope.
func FuzzCodecRoundTrip(f *testing.F) {
	// One seed per vocabulary shape, plus traced/deadline prefix variants.
	f.Add(uint8(0), "n2-1.n1-0", "hierarchical", ".", "client-7", int64(3), int64(12), int64(41), int64(0), uint64(0), true, true)
	f.Add(uint8(1), "10.0.0.7", "forward", "n1-0", "", int64(4), int64(2), int64(9), int64(0), uint64(0), true, false)
	f.Add(uint8(2), "", "", "", "", int64(0), int64(0), int64(0), int64(0), uint64(0), false, false)
	f.Add(uint8(3), "", "", "", "n1-3", int64(4), int64(0), int64(0), int64(0), uint64(0), false, false)
	f.Add(uint8(4), "n2-0.n1-1", "127.0.0.1:7103", "n2-3.n1-1", "", int64(0), int64(3), int64(0), int64(0), uint64(0), true, false)
	f.Add(uint8(5), "n1-5", "127.0.0.1:7005", "", "", int64(5), int64(0), int64(0), int64(0), uint64(0), false, false)
	f.Add(uint8(6), "n1-2", "127.0.0.1:7002", "", "", int64(2), int64(1), int64(8), int64(0), uint64(0), false, false)
	f.Add(uint8(7), "shed", "overloaded", "", "n2", int64(25), int64(0), int64(0), int64(1), uint64(0), false, false)
	f.Add(uint8(8), "n2-9", "127.0.0.1:7210", "", "", int64(0), int64(0), int64(0), int64(0), uint64(0), false, false)
	f.Add(uint8(9), "a.b", "backward", "", "", int64(7), int64(0), int64(0), int64(0), uint64(0), false, false)
	f.Add(uint8(10), "future", "lbl", "addr", "", int64(0), int64(0), int64(0), int64(0), uint64(0), false, false)
	// Traced and deadline-stamped variants: the mux layer strips TC/DL
	// into binary frame prefixes, a path plain codec round trips miss.
	f.Add(uint8(0), "n2-1.n1-0", "hierarchical", ".", "client-7", int64(3), int64(12), int64(41), int64(950), uint64(0xfeedbeef), true, true)
	f.Add(uint8(7), "shed", "overloaded", "", "n2", int64(25), int64(0), int64(0), int64(1), uint64(7), false, false)
	// Invalid UTF-8 exercises the sanitizer.
	f.Add(uint8(0), "\xff\xfe", "hier\xc3", "\x80", "c\xf0", int64(1), int64(2), int64(3), int64(4), uint64(5), true, true)

	f.Fuzz(func(t *testing.T, kind uint8, s1, s2, s3, from string, i1, i2, i3, dl int64, tcID uint64, b1, b2 bool) {
		m := fuzzBuildMessage(kind, s1, s2, s3, from, i1, i2, i3, dl, tcID, b1, b2)

		// Bare codec differential: encode+decode through each codec and
		// compare the observable messages.
		je, err := JSON.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("json encode: %v", err)
		}
		be, err := Binary.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		jm, err := JSON.DecodeMessage(je)
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		bm, err := Binary.DecodeMessage(be)
		if err != nil {
			t.Fatalf("binary decode(%x): %v", be, err)
		}
		if !decodedEqual(t, jm, bm) {
			t.Fatalf("codecs disagree:\nmsg:    %+v\njson:   %+v\nbinary: %+v", m, jm, bm)
		}

		// Mux framing: TC and DL leave the envelope and ride flagged binary
		// frame prefixes; the frame must reassemble the same message (nil
		// scratch here — the read loops' warm path is exercised by the
		// transport tests).
		frame, err := AppendMuxFrame(nil, FrameRequest, 42, m)
		if err != nil {
			t.Fatalf("mux encode: %v", err)
		}
		fk, id, got, _, err := ReadMuxFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("mux decode: %v", err)
		}
		if fk != FrameRequest || id != 42 {
			t.Fatalf("mux frame header changed: kind=%v id=%d", fk, id)
		}
		wantDL := min(m.DL, maxDeadlineMillis)
		if got.TC != m.TC || got.DL != wantDL || got.From != m.From {
			t.Fatalf("mux envelope changed: got tc=%+v dl=%d from=%q, want tc=%+v dl=%d from=%q",
				got.TC, got.DL, got.From, m.TC, wantDL, m.From)
		}
		if !decodedEqual(t, m, got) {
			t.Fatalf("mux round trip changed the message:\n in: %+v\nout: %+v", m, got)
		}
	})
}

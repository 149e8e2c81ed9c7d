package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
)

// writeMuxFrame writes one frame with its own Write call — the
// unbatched reference the coalescer tests compare their stream against.
func writeMuxFrame(w io.Writer, kind FrameKind, id uint64, m Message) error {
	buf, err := AppendMuxFrame(nil, kind, id, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readMuxFrame is ReadMuxFrame without a scratch buffer.
func readMuxFrame(r io.Reader) (FrameKind, uint64, Message, error) {
	kind, id, m, _, err := ReadMuxFrame(r, nil)
	return kind, id, m, err
}

func TestMuxHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != helloLen {
		t.Fatalf("hello length = %d, want %d", got, helloLen)
	}
	if err := ReadHello(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestMuxHelloBadMagic(t *testing.T) {
	if err := ReadHello(bytes.NewReader([]byte{0, 0, 0, 9, MuxVersion})); err == nil {
		t.Error("bad magic accepted")
	}
	if err := ReadHello(bytes.NewReader([]byte{0x48, 0x52})); err == nil {
		t.Error("truncated hello accepted")
	}
}

// TestMuxHelloVersionChecked pins the handshake's version check on both
// entry points: the dialer's ReadHello and the listener's FinishHello
// (which runs after the magic was sniffed) reject every version but this
// build's, naming the offending one.
func TestMuxHelloVersionChecked(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, MuxVersion - 1, MuxVersion + 1} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[4] = v
		want := fmt.Sprintf("unsupported mux version %d", v)
		if err := ReadHello(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadHello(version %d) = %v, want %q", v, err, want)
		}
		if err := FinishHello(bytes.NewReader(raw[4:])); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("FinishHello(version %d) = %v, want %q", v, err, want)
		}
	}
}

func TestMuxMagicExceedsFrameLimit(t *testing.T) {
	// Sniffing depends on it: the magic can never be a one-shot length
	// prefix, and a one-shot decoder handed the preface rejects it
	// instantly instead of waiting for a body.
	if MuxMagic <= maxFrame {
		t.Fatalf("MuxMagic %#x must exceed maxFrame %#x", MuxMagic, maxFrame)
	}
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("one-shot decoder accepted the mux preface")
	}
}

func TestIsMuxPreface(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MuxMagic)
	if !IsMuxPreface(hdr) {
		t.Error("magic not recognized")
	}
	binary.BigEndian.PutUint32(hdr[:], 42) // a plausible one-shot length
	if IsMuxPreface(hdr) {
		t.Error("one-shot length prefix misread as mux preface")
	}
}

func TestFinishHello(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var hdr [4]byte
	copy(hdr[:], raw[:4]) // sniffed by the listener
	if !IsMuxPreface(hdr) {
		t.Fatal("preface not recognized")
	}
	if err := FinishHello(bytes.NewReader(raw[4:])); err != nil {
		t.Fatal(err)
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	msg, err := New(TypeQuery, Query{Target: "a.b", Mode: ModeHierarchical, TTL: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []FrameKind{FrameRequest, FrameResponse} {
		var buf bytes.Buffer
		if err := writeMuxFrame(&buf, kind, 77, msg); err != nil {
			t.Fatal(err)
		}
		k, id, m, err := readMuxFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if k != kind || id != 77 {
			t.Errorf("kind/id = %v/%d, want %v/77", k, id, kind)
		}
		if m.Type != msg.Type || !bytes.Equal(m.Payload, msg.Payload) {
			t.Errorf("message round trip: %+v vs %+v", m, msg)
		}
	}
}

// TestMuxFrameFlags pins the wire format of a request's optional
// prefixes: the kind nibble stays FrameRequest, a message with a trace
// context and/or a budget sets the matching flag bits, each rides as a
// fixed-width binary prefix (trace context first) rather than in the
// body, and the reader folds them back into Message.TC / Message.DL.
func TestMuxFrameFlags(t *testing.T) {
	tc := TraceContext{TraceID: 7, SpanID: 9, Flags: FlagSampled}
	for _, c := range []struct {
		name  string
		msg   Message
		flags byte
	}{
		{"plain", Message{Type: TypeQuery}, 0},
		{"traced", Message{Type: TypeQuery, TC: tc}, flagTraced},
		{"deadline", Message{Type: TypeQuery, DL: 1234}, flagDeadline},
		{"traced and deadline", Message{Type: TypeQuery, TC: tc, DL: 555}, flagTraced | flagDeadline},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw, err := AppendMuxFrame(nil, FrameRequest, 42, c.msg)
			if err != nil {
				t.Fatal(err)
			}
			if raw[0] != byte(FrameRequest)|c.flags {
				t.Fatalf("kind byte = %#x, want %#x", raw[0], byte(FrameRequest)|c.flags)
			}
			off := muxHeaderLen
			if c.flags&flagTraced != 0 {
				got, err := ParseTraceContext(raw[off:])
				if err != nil || got != tc {
					t.Errorf("binary trace prefix = %+v, %v; want %+v", got, err, tc)
				}
				off += TraceContextLen
			}
			if c.flags&flagDeadline != 0 {
				if got := binary.BigEndian.Uint32(raw[off : off+deadlineLen]); int64(got) != c.msg.DL {
					t.Errorf("binary deadline prefix = %d, want %d", got, c.msg.DL)
				}
				off += deadlineLen
			}
			// The body is the bare message: no envelope copy of TC or DL.
			bare, err := Binary.AppendMessage(nil, Message{Type: TypeQuery})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw[off:], bare) {
				t.Errorf("body = %x, want the bare message %x", raw[off:], bare)
			}
			k, id, m, err := readMuxFrame(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if k != FrameRequest || id != 42 {
				t.Errorf("kind/id = %v/%d, want request/42", k, id)
			}
			if m.TC != c.msg.TC || m.DL != c.msg.DL {
				t.Errorf("restored TC/DL = %+v/%d, want %+v/%d", m.TC, m.DL, c.msg.TC, c.msg.DL)
			}
		})
	}

	t.Run("huge budget clamps", func(t *testing.T) {
		msg := Message{Type: TypeQuery, DL: maxDeadlineMillis + 99}
		var buf bytes.Buffer
		if err := writeMuxFrame(&buf, FrameRequest, 1, msg); err != nil {
			t.Fatal(err)
		}
		_, _, m, err := readMuxFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if m.DL != maxDeadlineMillis {
			t.Errorf("clamped DL = %d, want %d", m.DL, maxDeadlineMillis)
		}
	})

	t.Run("responses keep both in the envelope", func(t *testing.T) {
		// Only requests use the prefixes; a response carrying TC or DL
		// (unusual but legal) stays unflagged.
		msg := Message{Type: TypeQueryResult, TC: tc, DL: 777}
		raw, err := AppendMuxFrame(nil, FrameResponse, 3, msg)
		if err != nil {
			t.Fatal(err)
		}
		if raw[0] != byte(FrameResponse) {
			t.Fatalf("kind byte = %#x, want an unflagged response", raw[0])
		}
		k, _, m, err := readMuxFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if k != FrameResponse || m.DL != 777 || m.TC != tc {
			t.Errorf("response round trip kind=%v DL=%d TC=%+v, want response/777/%+v", k, m.DL, m.TC, tc)
		}
	})
}

// rawMuxFrame assembles a frame from an explicit kind byte and body,
// bypassing the encoder's checks.
func rawMuxFrame(kindByte byte, body []byte) []byte {
	raw := make([]byte, muxHeaderLen+len(body))
	raw[0] = kindByte
	binary.BigEndian.PutUint64(raw[1:9], 5)
	binary.BigEndian.PutUint32(raw[9:13], uint32(len(body)))
	copy(raw[muxHeaderLen:], body)
	return raw
}

// malformedFlagFrames are the header/prefix violations the reader must
// reject: unknown flag bits, flags on a non-request kind, and flagged
// requests whose body is too short for the promised prefix.
func malformedFlagFrames() map[string][]byte {
	probe, _ := Binary.AppendMessage(nil, Message{Type: TypeProbe})
	tc := TraceContext{TraceID: 1, SpanID: 2}.AppendBinary(nil)
	return map[string][]byte{
		"unknown flag 0x40":          rawMuxFrame(byte(FrameRequest)|0x40, probe),
		"unknown flag 0x80":          rawMuxFrame(byte(FrameRequest)|0x80|flagTraced, append(tc, probe...)),
		"traced response":            rawMuxFrame(byte(FrameResponse)|flagTraced, append(tc, probe...)),
		"deadline goaway":            rawMuxFrame(byte(FrameGoAway)|flagDeadline, []byte{0, 0, 0, 9}),
		"traced, 16-byte body":       rawMuxFrame(byte(FrameRequest)|flagTraced, tc[:TraceContextLen-1]),
		"traced, empty body":         rawMuxFrame(byte(FrameRequest)|flagTraced, nil),
		"deadline, 3-byte body":      rawMuxFrame(byte(FrameRequest)|flagDeadline, []byte{1, 2, 3}),
		"deadline, empty body":       rawMuxFrame(byte(FrameRequest)|flagDeadline, nil),
		"traced+deadline, no budget": rawMuxFrame(byte(FrameRequest)|flagTraced|flagDeadline, tc),
	}
}

// TestMuxFrameMalformedFlags rejects every malformedFlagFrames case, and
// the header-only violations before the body is even read.
func TestMuxFrameMalformedFlags(t *testing.T) {
	for name, raw := range malformedFlagFrames() {
		if _, _, _, err := readMuxFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unknown flags and flags on a non-request kind are header errors: a
	// reader that saw only the 13 header bytes must already say so
	// (anything else would be an EOF from the body read).
	for _, kindByte := range []byte{byte(FrameRequest) | 0x40, byte(FrameResponse) | flagTraced, byte(FrameGoAway) | flagDeadline} {
		hdr := rawMuxFrame(kindByte, make([]byte, 64))[:muxHeaderLen]
		_, _, _, err := readMuxFrame(bytes.NewReader(hdr))
		if err == nil || !strings.Contains(err.Error(), "flags") {
			t.Errorf("kind byte %#x: err = %v, want a flags error from the header alone", kindByte, err)
		}
	}
	raw := rawMuxFrame(byte(FrameRequest)|flagDeadline, []byte{1, 2})
	if _, _, _, err := readMuxFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "deadline prefix") {
		t.Errorf("truncated deadline prefix err = %v", err)
	}
}

func TestMuxGoAwayBodyless(t *testing.T) {
	var buf bytes.Buffer
	// Any message passed with GoAway is ignored: the frame has no body.
	msg, err := New(TypeProbe, TableInfo{Name: "ignored"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMuxFrame(&buf, FrameGoAway, 0, msg); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != muxHeaderLen {
		t.Fatalf("goaway frame length = %d, want header-only %d", got, muxHeaderLen)
	}
	k, id, m, err := readMuxFrame(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if k != FrameGoAway || id != 0 || m.Type != "" || m.Payload != nil {
		t.Errorf("goaway decoded as kind=%v id=%d msg=%+v", k, id, m)
	}
}

func TestMuxFrameMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := writeMuxFrame(&buf, FrameRequest, 1, Message{Type: TypeProbe}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("unknown kind", func(t *testing.T) {
		for _, k := range []byte{0, 4, 0x0e} {
			raw := valid()
			raw[0] = k
			if _, _, _, err := readMuxFrame(bytes.NewReader(raw)); err == nil {
				t.Errorf("unknown kind %d accepted", k)
			}
		}
	})
	t.Run("write unknown kind", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeMuxFrame(&buf, FrameKind(9), 1, Message{Type: TypeProbe}); err == nil {
			t.Error("unknown kind written")
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		raw := valid()
		binary.BigEndian.PutUint32(raw[9:13], maxFrame+1)
		_, _, _, err := readMuxFrame(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("oversized frame err = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		raw := valid()
		if _, _, _, err := readMuxFrame(bytes.NewReader(raw[:muxHeaderLen-2])); err == nil {
			t.Error("truncated header accepted")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		raw := valid()
		if _, _, _, err := readMuxFrame(bytes.NewReader(raw[:len(raw)-1])); err == nil {
			t.Error("truncated body accepted")
		}
	})
	t.Run("undecodable body", func(t *testing.T) {
		// A JSON envelope is not a mux body: mux bodies are always binary.
		raw := rawMuxFrame(byte(FrameRequest), []byte(`{"type":"probe"}`))
		if _, _, _, err := readMuxFrame(bytes.NewReader(raw)); err == nil {
			t.Error("undecodable body accepted")
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		if _, _, _, err := readMuxFrame(bytes.NewReader(nil)); err == nil {
			t.Error("empty stream accepted")
		}
	})
}

// TestMuxFrameStream decodes several frames back to back, as the
// connection read loops do.
func TestMuxFrameStream(t *testing.T) {
	var buf bytes.Buffer
	for id := uint64(1); id <= 5; id++ {
		if err := writeMuxFrame(&buf, FrameRequest, id, Message{Type: TypeProbe}); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for id := uint64(1); id <= 5; id++ {
		k, gotID, _, err := readMuxFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if k != FrameRequest || gotID != id {
			t.Fatalf("frame %d decoded as kind=%v id=%d", id, k, gotID)
		}
	}
	if _, _, _, err := readMuxFrame(r); err == nil || !bytes.Contains([]byte(err.Error()), []byte(io.EOF.Error())) {
		t.Errorf("post-stream read err = %v, want EOF-ish", err)
	}
}

// FuzzReadMuxFrame hardens the mux decoder the same way FuzzReadFrame
// hardens the one-shot decoder: never panic, and round-trip anything
// accepted.
func FuzzReadMuxFrame(f *testing.F) {
	seed := func(kind FrameKind, id uint64, m Message) {
		var buf bytes.Buffer
		if err := writeMuxFrame(&buf, kind, id, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(FrameRequest, 1, Message{Type: TypeProbe})
	seed(FrameResponse, 1<<40, Message{Type: TypeQuery,
		Payload: []byte(`{"target":"a.b","mode":"forward","ttl":9}`)})
	seed(FrameGoAway, 0, Message{})
	// Flagged requests: deadline only, trace context plus deadline, and
	// the envelope's From identity.
	seed(FrameRequest, 2, Message{Type: TypeQuery, From: "client-7", DL: 1234,
		Payload: []byte(`{"target":"a.b","mode":"forward","ttl":9}`)})
	seed(FrameRequest, 3, Message{Type: TypeQuery,
		TC: TraceContext{TraceID: 7, SpanID: 9, Flags: FlagSampled}, DL: 88})
	seed(FrameRequest, 4, Typed(TypeQuery, &Query{Target: "n2-1.n1-0", Mode: ModeHierarchical, TTL: 12}))

	// Malformed seeds: unknown kind, oversized length, truncations, and
	// every flag violation.
	f.Add(rawMuxFrame(0x0e, nil))
	over := rawMuxFrame(byte(FrameRequest), nil)
	binary.BigEndian.PutUint32(over[9:13], maxFrame+1)
	f.Add(over)
	f.Add([]byte{byte(FrameRequest), 0, 0})
	f.Add([]byte{})
	for _, raw := range malformedFlagFrames() {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, id, m, err := readMuxFrame(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := writeMuxFrame(&buf, kind, id, m); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		k2, id2, m2, err := readMuxFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if k2 != kind || id2 != id || m2.Type != m.Type || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: (%v,%d,%+v) vs (%v,%d,%+v)", kind, id, m, k2, id2, m2)
		}
		// The binary prefixes must survive the round trip too. A trace
		// context the encoder considers zero is dropped by omitzero, and a
		// request's oversized budget is clamped on re-encode, so only the
		// representable values are compared.
		if !m.TC.IsZero() && m2.TC != m.TC {
			t.Fatalf("trace context round trip mismatch: %+v vs %+v", m.TC, m2.TC)
		}
		wantDL := m.DL
		if kind == FrameRequest && wantDL > maxDeadlineMillis {
			wantDL = maxDeadlineMillis
		}
		if m.DL > 0 && m2.DL != wantDL {
			t.Fatalf("deadline round trip mismatch: %d vs %d (want %d)", m.DL, m2.DL, wantDL)
		}
	})
}

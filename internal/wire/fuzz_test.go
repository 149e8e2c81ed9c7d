package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReadFrame hardens the frame decoder against arbitrary byte streams:
// it must never panic and must round-trip anything it accepts.
func FuzzReadFrame(f *testing.F) {
	// Seed with valid frames of each message type plus mutations.
	seedMsgs := []Message{
		{Type: TypeProbe},
		{Type: TypeQuery, Payload: []byte(`{"target":"a.b","mode":"forward","ttl":9}`)},
		{Type: TypeError, Payload: []byte(`{"reason":"x"}`)},
		{Type: TypeQuery, Payload: []byte(`{"target":"a.b","mode":"nephew","ttl":9,"trace":true,` +
			`"hopTrace":[{"node":".","index":-1,"mode":"hierarchical","durationMicros":12}]}`)},
		{Type: TypeStatsResult, Payload: []byte(`{"name":"a","metrics":{"counters":{"q_total":3},` +
			`"histograms":{"h_seconds":{"count":1,"sumNanos":1000,"bounds":[0.001],"counts":[1,0]}}}}`)},
		// Envelope fields added for overload protection: the caller's
		// admission identity and the propagated deadline budget.
		{Type: TypeQuery, From: "client-7", DL: 1234,
			Payload: []byte(`{"target":"a.b","mode":"forward","ttl":9}`)},
		{Type: TypeError, From: "n2", DL: 1,
			Payload: []byte(`{"reason":"overloaded","code":"overloaded","retryAfterMillis":25}`)},
	}
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xffffffff)
	f.Add(hdr[:])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		// Anything accepted must re-encode and decode to the same frame.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		m2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if m2.Type != m.Type || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", m, m2)
		}
		if m2.From != m.From || m2.DL != m.DL {
			t.Fatalf("envelope round trip mismatch: from=%q dl=%d vs from=%q dl=%d",
				m.From, m.DL, m2.From, m2.DL)
		}
	})
}

// FuzzCoalescer pins the batching invariant: a run of frames pushed
// through the write coalescer must produce the exact byte stream of the
// same frames written one Write per frame — whatever the payloads,
// envelope fields, or flush boundaries — so a peer cannot tell batched
// and unbatched senders apart.
func FuzzCoalescer(f *testing.F) {
	f.Add("a.b", "client-1", int64(0), uint(3), uint8(1))
	f.Add("deep.le.vel.chain", "", int64(1234), uint(17), uint8(4))
	f.Add("", "x", int64(-5), uint(1), uint8(0))
	f.Add("victim.zone", "aggressor", int64(1<<40), uint(40), uint8(2))

	f.Fuzz(func(t *testing.T, target, from string, dl int64, n uint, spread uint8) {
		frames := int(n%64) + 1
		msgs := make([]Message, frames)
		for i := range msgs {
			m, err := New(TypeQuery, Query{Target: target, TTL: i})
			if err != nil {
				t.Skip()
			}
			if i%2 == 0 {
				m.From = from
			}
			if int(spread) > 0 && i%int(spread) == 0 {
				m.DL = dl
			}
			msgs[i] = m
		}

		var direct bytes.Buffer
		for i, m := range msgs {
			if err := writeMuxFrame(&direct, FrameRequest, uint64(i), m); err != nil {
				t.Skip() // unencodable input rejected identically either way
			}
		}

		w := &collectWriter{}
		co := NewCoalescer(CoalescerConfig{
			Write:     w.write,
			MaxBytes:  512, // small bound: force mid-run flush boundaries
			MaxLinger: 50 * time.Microsecond,
			Inflight:  func() int { return frames },
		})
		go co.Run()
		for i, m := range msgs {
			if err := co.WriteMuxFrame(FrameRequest, uint64(i), m); err != nil {
				t.Fatalf("coalesced write %d: %v", i, err)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.stream(), direct.Bytes()) {
			t.Fatalf("coalesced stream differs from direct stream (%d vs %d bytes)",
				len(w.stream()), len(direct.Bytes()))
		}
		r := bytes.NewReader(w.stream())
		var scratch []byte
		for i := range msgs {
			var m Message
			var err error
			_, _, m, scratch, err = ReadMuxFrame(r, scratch)
			if err != nil {
				t.Fatalf("decode frame %d of coalesced stream: %v", i, err)
			}
			if m.Type != TypeQuery {
				t.Fatalf("frame %d decoded type %q", i, m.Type)
			}
		}
	})
}

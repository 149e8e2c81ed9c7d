package wire

// Multiplexed framing.
//
// One-shot framing (wire.go) carries one length-prefixed JSON message per
// direction per connection. Multiplexed framing carries many concurrent
// exchanges over one persistent connection by tagging every frame with a
// kind and a request ID; bodies are always the binary codec (codec.go):
//
//	preface   [magic:4 = "HRS3"][version:1]              (client → server)
//	ack       [magic:4 = "HRS3"][version:1]              (server → client)
//	frame     [flags:4|kind:4][id:8][len:4][len bytes]   (both directions)
//
// A request frame's flags say which fixed-width binary prefixes precede
// its body, in this order: flagTraced a 17-byte trace context,
// flagDeadline a 4-byte big-endian millisecond budget. Both are stripped
// from the message before the codec runs, so the hot-path cost of tracing
// and deadlines is fixed bytes, not extra envelope fields.
//
// The listener tells the two framings apart by the first four bytes of a
// connection: the magic, read as a big-endian length, exceeds maxFrame,
// so it can never be a one-shot length prefix. Both sides check the
// version byte; a mismatch fails the handshake — there is no downgrade.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MuxMagic opens every multiplexed connection ("HRS3" big-endian). Its
// numeric value is far above maxFrame, so a one-shot decoder reading it
// as a frame length fails immediately instead of waiting for a body.
const MuxMagic uint32 = 0x48525333

// MuxVersion is the multiplexed protocol version spoken by this build.
// It changes whenever the frame layout does, so a stale build fails the
// handshake instead of mis-parsing frames.
const MuxVersion byte = 4

// FrameKind tags one multiplexed frame (the low nibble of its first
// byte).
type FrameKind byte

const (
	// FrameRequest carries a request message; the peer answers with a
	// FrameResponse bearing the same ID.
	FrameRequest FrameKind = 1
	// FrameResponse carries the response to the same-ID request.
	FrameResponse FrameKind = 2
	// FrameGoAway tells the peer the sender is about to close the
	// connection: stop issuing new requests on it. It carries no body and
	// ID 0.
	FrameGoAway FrameKind = 3
)

// Request-frame flags (the high nibble of the first byte). AppendMuxFrame
// sets them from the message and ReadMuxFrame folds them back into
// Message.TC / Message.DL, so transports never see them.
const (
	flagTraced   byte = 1 << 4 // body starts with a TraceContextLen-byte trace context
	flagDeadline byte = 1 << 5 // then a deadlineLen-byte millisecond budget

	kindMask   byte = 0x0f
	knownFlags      = flagTraced | flagDeadline
)

// valid reports whether the kind is one this build understands.
func (k FrameKind) valid() bool { return k >= FrameRequest && k <= FrameGoAway }

// String renders the kind for errors and logs.
func (k FrameKind) String() string {
	switch k {
	case FrameRequest:
		return "request"
	case FrameResponse:
		return "response"
	case FrameGoAway:
		return "goaway"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// helloLen is the size of the preface/ack: magic plus version.
const helloLen = 5

// WriteHello writes the mux preface (client side) or ack (server side).
func WriteHello(w io.Writer) error {
	var buf [helloLen]byte
	binary.BigEndian.PutUint32(buf[:4], MuxMagic)
	buf[4] = MuxVersion
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("wire: write mux hello: %w", err)
	}
	return nil
}

// ReadHello reads a mux preface/ack and checks its magic and version.
func ReadHello(r io.Reader) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("wire: read mux hello: %w", err)
	}
	if !IsMuxPreface(hdr) {
		return fmt.Errorf("wire: bad mux magic %#x", binary.BigEndian.Uint32(hdr[:]))
	}
	return FinishHello(r)
}

// IsMuxPreface reports whether a sniffed 4-byte header opens a
// multiplexed connection (as opposed to being a one-shot length prefix).
func IsMuxPreface(hdr [4]byte) bool {
	return binary.BigEndian.Uint32(hdr[:]) == MuxMagic
}

// FinishHello completes a hello whose first four bytes were already
// consumed by connection sniffing (see IsMuxPreface): it reads the
// version byte and rejects any version but this build's.
func FinishHello(r io.Reader) error {
	var v [1]byte
	if _, err := io.ReadFull(r, v[:]); err != nil {
		return fmt.Errorf("wire: read mux hello version: %w", err)
	}
	if v[0] != MuxVersion {
		return fmt.Errorf("wire: unsupported mux version %d", v[0])
	}
	return nil
}

// muxHeaderLen is the per-frame header: flags|kind, request ID, body
// length.
const muxHeaderLen = 1 + 8 + 4

// deadlineLen is the binary deadline prefix: remaining millis, uint32.
const deadlineLen = 4

// maxDeadlineMillis caps the encodable budget (~49.7 days); larger
// budgets are clamped rather than wrapped.
const maxDeadlineMillis = int64(^uint32(0))

// pooledBufMax caps the capacity of buffers kept for reuse (the
// coalescer's batch buffers, the JSON encoder pool); a rare giant frame
// must not pin its memory forever.
const pooledBufMax = 64 << 10

// AppendMuxFrame appends one encoded multiplexed frame to dst and
// returns the extended slice. GoAway frames carry no body; every other
// kind carries the binary-encoded message, serialized directly into dst
// after the (header, prefix) placeholder so the hot path never
// materializes an intermediate body slice. A request whose message holds
// a trace context and/or a deadline budget gets the matching flags and
// binary prefixes (see the package comment above), and its body is
// encoded without them.
//
// Because it appends, callers can pack several frames into one buffer
// and hand them to the kernel in a single write — the primitive under
// the Coalescer's batched flushes.
func AppendMuxFrame(dst []byte, kind FrameKind, id uint64, m Message) ([]byte, error) {
	if !kind.valid() {
		return dst, fmt.Errorf("wire: write frame of unknown kind %d", byte(kind))
	}
	var tc TraceContext
	var dl int64
	var flags byte
	prefix := 0
	if kind == FrameRequest {
		if !m.TC.IsZero() {
			tc, m.TC = m.TC, TraceContext{}
			flags |= flagTraced
			prefix += TraceContextLen
		}
		if m.DL > 0 {
			dl, m.DL = min(m.DL, maxDeadlineMillis), 0
			flags |= flagDeadline
			prefix += deadlineLen
		}
	}
	start := len(dst)
	// Reserve the (header, prefix) placeholder from a stack array rather
	// than append(dst, make(...)...): the compiler's append-make fusion is
	// off under race instrumentation, and the zero-alloc pin holds there
	// too.
	var zeros [muxHeaderLen + TraceContextLen + deadlineLen]byte
	dst = append(dst, zeros[:muxHeaderLen+prefix]...)
	bodyStart := len(dst)
	if kind != FrameGoAway {
		var err error
		dst, err = Binary.AppendMessage(dst, m)
		if err != nil {
			return dst[:start], err
		}
	}
	bodyLen := len(dst) - bodyStart
	if bodyLen > maxFrame {
		return dst[:start], fmt.Errorf("wire: frame of %d bytes exceeds limit %d", bodyLen, maxFrame)
	}
	hdr := dst[start:bodyStart]
	hdr[0] = byte(kind) | flags
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(prefix+bodyLen))
	off := muxHeaderLen
	if flags&flagTraced != 0 {
		tc.AppendBinary(hdr[off : off : off+TraceContextLen])
		off += TraceContextLen
	}
	if flags&flagDeadline != 0 {
		binary.BigEndian.PutUint32(hdr[off:off+deadlineLen], uint32(dl))
	}
	return dst, nil
}

// ReadMuxFrame reads one multiplexed frame: its kind, request ID, and
// message (zero Message for bodyless frames). A request's flagged
// prefixes are decoded into Message.TC / Message.DL, so serving loops
// handle every request identically. Unknown kinds, unknown flag bits and
// flags on a non-request frame are rejected from the header alone,
// before anything is allocated for the body.
//
// The frame body is read into the caller-owned scratch (grown as needed)
// and the possibly larger buffer is returned for the next call, so a
// long-lived read loop amortizes its body allocations to zero. The
// decoded Message owns its memory — the codec and the prefix parsers
// copy out of the scratch — so reusing the buffer immediately is safe.
func ReadMuxFrame(r io.Reader, scratch []byte) (FrameKind, uint64, Message, []byte, error) {
	var hdr [muxHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: read mux header: %w", err)
	}
	kind, flags := FrameKind(hdr[0]&kindMask), hdr[0]&^kindMask
	if !kind.valid() {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: unknown frame kind %d", hdr[0])
	}
	if flags&^knownFlags != 0 {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: unknown frame flags %#x", flags)
	}
	if flags != 0 && kind != FrameRequest {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: %s frame carries request flags %#x", kind, flags)
	}
	id := binary.BigEndian.Uint64(hdr[1:9])
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > maxFrame {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: mux frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if kind == FrameGoAway && n != 0 {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: goaway frame with a %d-byte body", n)
	}
	if n == 0 && flags == 0 {
		return kind, id, Message{}, scratch, nil
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:cap(scratch)]
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, Message{}, scratch, fmt.Errorf("wire: read mux body: %w", err)
	}
	var tc TraceContext
	var dl int64
	if flags&flagTraced != 0 {
		var err error
		tc, err = ParseTraceContext(body)
		if err != nil {
			return 0, 0, Message{}, scratch, err
		}
		body = body[TraceContextLen:]
	}
	if flags&flagDeadline != 0 {
		if len(body) < deadlineLen {
			return 0, 0, Message{}, scratch, fmt.Errorf("wire: request frame of %d bytes lacks its deadline prefix", len(body))
		}
		dl = int64(binary.BigEndian.Uint32(body[:deadlineLen]))
		body = body[deadlineLen:]
	}
	m, err := Binary.DecodeMessage(body)
	if err != nil {
		return 0, 0, Message{}, scratch, err
	}
	if !tc.IsZero() {
		m.TC = tc
	}
	if dl > 0 {
		m.DL = dl
	}
	return kind, id, m, scratch, nil
}

package wire

// Message body codecs.
//
// JSON made the prototype's vocabulary easy to evolve, but it taxes the
// hot path twice per message: wire.New marshals the payload into a
// json.RawMessage, the envelope is marshaled again around it, and the
// receiver reverses both. Upper-level HOURS nodes forward the aggregate
// query load of the whole hierarchy, so that serialization tax is paid
// per hop, per query — exactly the per-message cost an attacker
// multiplies (cf. DESIGN.md §8).
//
// A Codec turns a Message into frame-body bytes and back. Two exist:
//
//   - JSON: the human-debuggable body of one-shot frames (wire.go), and
//     the reference the binary codec is fuzzed against. Typed messages
//     (see Typed) encode in one pass through a pooled encoder — no
//     intermediate RawMessage.
//   - Binary: the body of every mux frame (mux.go). A hand-rolled
//     envelope plus per-type body encodings for the hot vocabulary
//     (query, query_result, probe, repair, notify_ccw, child_sample,
//     error). Everything else rides inside the binary envelope as its
//     JSON payload bytes, so no message type is unencodable.
//
// Binary envelope layout (all varints are encoding/binary varints,
// strings are uvarint-length-prefixed UTF-8):
//
//	[flags:1][type: id:1 | string][from?: string]
//	[tc?: 17 bytes][dl?: uvarint millis][body...]
//
// flags bit0: body is the registered per-type binary encoding (else the
// body bytes are the message's JSON payload, possibly empty); bit1: From
// present; bit2: type encoded as a string (a Type this build has no ID
// for); bit3/bit4: trace context / deadline present — insurance only, as
// mux framing strips both into binary frame prefixes before the codec
// runs.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Codec encodes Messages to frame-body bytes and back. Implementations
// must be safe for concurrent use; AppendMessage appends so callers can
// pack frames into shared buffers, and DecodeMessage must copy out of
// its input (read loops reuse the buffer for the next frame).
type Codec interface {
	// AppendMessage appends the encoded message to dst.
	AppendMessage(dst []byte, m Message) ([]byte, error)
	// DecodeMessage decodes one message from body. The returned Message
	// owns its memory.
	DecodeMessage(body []byte) (Message, error)
}

// JSON is the JSON envelope codec: the body of one-shot frames.
var JSON Codec = jsonCodec{}

// Binary is the hand-rolled binary codec: the body of mux frames.
var Binary Codec = binaryCodec{}

// ----- JSON codec -----

type jsonCodec struct{}

func (jsonCodec) AppendMessage(dst []byte, m Message) ([]byte, error) {
	return appendJSONMessage(dst, m)
}

func (jsonCodec) DecodeMessage(body []byte) (Message, error) { return decodeFrame(body) }

// jsonEnvelope mirrors Message's field order and tags with the payload
// inlined, so a typed message marshals in a single pass instead of
// payload-then-envelope.
type jsonEnvelope struct {
	Type    Type         `json:"type"`
	Payload any          `json:"payload,omitempty"`
	TC      TraceContext `json:"tc,omitzero"`
	From    string       `json:"from,omitempty"`
	DL      int64        `json:"dl,omitzero"`
}

// jsonEncoder is a pooled buffer+encoder pair: the encoder streams the
// envelope into the buffer, which is then appended to the caller's
// destination — one copy, no per-message RawMessage.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	return je
}}

// appendJSONMessage appends the JSON envelope encoding of m to dst.
func appendJSONMessage(dst []byte, m Message) ([]byte, error) {
	e := jsonEnvelope{Type: m.Type, TC: m.TC, From: m.From, DL: m.DL}
	// The Payload interface is only set when there is something to emit:
	// an interface holding an empty RawMessage would defeat omitempty and
	// encode "payload":null, which old decoders never saw.
	if m.body != nil {
		e.Payload = m.body
	} else if len(m.Payload) > 0 {
		e.Payload = m.Payload
	}
	je := jsonEncPool.Get().(*jsonEncoder)
	je.buf.Reset()
	if err := je.enc.Encode(e); err != nil {
		jsonEncPool.Put(je)
		return dst, fmt.Errorf("wire: marshal frame: %w", err)
	}
	b := je.buf.Bytes()
	dst = append(dst, b[:len(b)-1]...) // drop Encode's trailing newline
	if je.buf.Cap() <= pooledBufMax {
		jsonEncPool.Put(je)
	}
	return dst, nil
}

// ----- binary codec -----

type binaryCodec struct{}

// Binary envelope flag bits.
const (
	binTypedBody byte = 1 << 0 // body is the per-type binary encoding
	binHasFrom   byte = 1 << 1
	binTypeStr   byte = 1 << 2 // type as string (no registered ID)
	binHasTC     byte = 1 << 3
	binHasDL     byte = 1 << 4
)

// typeIDs assigns every declared Type a stable 1-byte wire ID. IDs are
// append-only: changing one breaks binary interop with earlier builds.
var typeIDs = map[Type]byte{
	TypeJoin:              1,
	TypeJoinResult:        2,
	TypeTableInfo:         3,
	TypeTableInfoResult:   4,
	TypeResolve:           5,
	TypeResolveResult:     6,
	TypeChildSample:       7,
	TypeChildSampleResult: 8,
	TypeQuery:             9,
	TypeQueryResult:       10,
	TypeProbe:             11,
	TypeProbeResult:       12,
	TypeNotifyCCW:         13,
	TypeNotifyCCWResult:   14,
	TypeRepair:            15,
	TypeRepairResult:      16,
	TypeStats:             17,
	TypeStatsResult:       18,
	TypeTraceGet:          19,
	TypeTraceGetResult:    20,
	TypeError:             21,
}

// idTypes is the reverse of typeIDs, built once at init.
var idTypes = func() map[byte]Type {
	m := make(map[byte]Type, len(typeIDs))
	for t, id := range typeIDs {
		m[id] = t
	}
	return m
}()

// bodyCodec is one hot type's binary body encoding. enc type-checks
// before appending and reports false (dst untouched) on a mismatched
// body, so the envelope falls back to JSON; dec returns the decoded body
// and the unconsumed remainder. Both nil marks a type whose messages
// carry no body at all (probes, bare acks).
type bodyCodec struct {
	enc func(dst []byte, body any) ([]byte, bool)
	dec func(b []byte) (any, []byte, error)
}

// bodyCodecs registers the binary body encodings of the hot vocabulary.
// The exhaustiveness guard (codec_guard_test.go) pins this set: adding a
// wire.Type forces a deliberate hot-or-fallback decision.
var bodyCodecs = map[Type]bodyCodec{
	TypeQuery:             {enc: encQueryBody, dec: decQueryBody},
	TypeQueryResult:       {enc: encQueryResultBody, dec: decQueryResultBody},
	TypeProbe:             {},
	TypeProbeResult:       {},
	TypeChildSample:       {enc: encChildSampleBody, dec: decChildSampleBody},
	TypeChildSampleResult: {enc: encChildSampleResultBody, dec: decChildSampleResultBody},
	TypeNotifyCCW:         {enc: encNotifyCCWBody, dec: decNotifyCCWBody},
	TypeNotifyCCWResult:   {},
	TypeRepair:            {enc: encRepairBody, dec: decRepairBody},
	TypeRepairResult:      {},
	TypeError:             {enc: encErrorBody, dec: decErrorBody},
}

// HotTypes returns the message types with a registered binary body
// codec, sorted — the set the exhaustiveness guard walks.
func HotTypes() []Type {
	ts := make([]Type, 0, len(bodyCodecs))
	for t := range bodyCodecs {
		ts = append(ts, t)
	}
	slices.Sort(ts)
	return ts
}

func (binaryCodec) AppendMessage(dst []byte, m Message) ([]byte, error) {
	flags := byte(0)
	id, knownID := typeIDs[m.Type]
	if !knownID {
		flags |= binTypeStr
	}
	if m.From != "" {
		flags |= binHasFrom
	}
	if !m.TC.IsZero() {
		flags |= binHasTC
	}
	if m.DL > 0 {
		flags |= binHasDL
	}
	flagsAt := len(dst)
	dst = append(dst, flags)
	if knownID {
		dst = append(dst, id)
	} else {
		dst = appendBinString(dst, string(m.Type))
	}
	if flags&binHasFrom != 0 {
		dst = appendBinString(dst, m.From)
	}
	if flags&binHasTC != 0 {
		dst = m.TC.AppendBinary(dst)
	}
	if flags&binHasDL != 0 {
		dst = binary.AppendUvarint(dst, uint64(m.DL))
	}
	// Body: the per-type binary encoding when the message carries a
	// matching typed body (or is a registered bodyless type), the raw
	// JSON payload bytes otherwise — legacy wire.New messages and cold
	// types stay round-trippable over a binary connection.
	if bc, hot := bodyCodecs[m.Type]; hot {
		if m.body != nil && bc.enc != nil {
			if nd, ok := bc.enc(dst, m.body); ok {
				// Patch nd, not dst: the body appends may have grown the
				// slice onto a new backing array.
				nd[flagsAt] |= binTypedBody
				return nd, nil
			}
		} else if m.body == nil && bc.enc == nil && len(m.Payload) == 0 {
			dst[flagsAt] |= binTypedBody // bodyless type, nothing to append
			return dst, nil
		}
	}
	if m.body != nil {
		nd, err := appendJSONValue(dst, m.body)
		if err != nil {
			return dst[:flagsAt], fmt.Errorf("wire: encode %s payload: %w", m.Type, err)
		}
		return nd, nil
	}
	return append(dst, m.Payload...), nil
}

func (binaryCodec) DecodeMessage(body []byte) (Message, error) {
	if len(body) == 0 {
		return Message{}, errors.New("wire: empty binary frame")
	}
	flags, rest := body[0], body[1:]
	var m Message
	var err error
	if flags&binTypeStr != 0 {
		var s string
		if s, rest, err = readBinString(rest); err != nil {
			return Message{}, fmt.Errorf("wire: binary frame type: %w", err)
		}
		m.Type = Type(s)
	} else {
		if len(rest) < 1 {
			return Message{}, errors.New("wire: binary frame truncated at type id")
		}
		t, ok := idTypes[rest[0]]
		if !ok {
			return Message{}, fmt.Errorf("wire: unknown binary type id %d", rest[0])
		}
		m.Type, rest = t, rest[1:]
	}
	if flags&binHasFrom != 0 {
		if m.From, rest, err = readBinString(rest); err != nil {
			return Message{}, fmt.Errorf("wire: binary frame from: %w", err)
		}
	}
	if flags&binHasTC != 0 {
		if m.TC, err = ParseTraceContext(rest); err != nil {
			return Message{}, err
		}
		rest = rest[TraceContextLen:]
	}
	if flags&binHasDL != 0 {
		var dl uint64
		if dl, rest, err = readBinUvarint(rest); err != nil {
			return Message{}, fmt.Errorf("wire: binary frame deadline: %w", err)
		}
		m.DL = int64(dl)
	}
	if flags&binTypedBody == 0 {
		if len(rest) > 0 {
			m.Payload = append(json.RawMessage(nil), rest...)
		}
		return m, nil
	}
	bc, hot := bodyCodecs[m.Type]
	if !hot {
		return Message{}, fmt.Errorf("wire: no binary codec registered for %s", m.Type)
	}
	if bc.dec == nil {
		if len(rest) != 0 {
			return Message{}, fmt.Errorf("wire: %s frame carries %d unexpected body bytes", m.Type, len(rest))
		}
		return m, nil
	}
	b, rest, err := bc.dec(rest)
	if err != nil {
		return Message{}, fmt.Errorf("wire: decode %s body: %w", m.Type, err)
	}
	if len(rest) != 0 {
		return Message{}, fmt.Errorf("wire: %s frame has %d trailing bytes", m.Type, len(rest))
	}
	m.body = b
	m.owned = true // fresh from the wire: the receiver owns it exclusively
	return m, nil
}

// appendJSONValue appends the JSON encoding of v through the pooled
// encoder (fallback bodies inside the binary envelope).
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	je := jsonEncPool.Get().(*jsonEncoder)
	je.buf.Reset()
	if err := je.enc.Encode(v); err != nil {
		jsonEncPool.Put(je)
		return dst, err
	}
	b := je.buf.Bytes()
	dst = append(dst, b[:len(b)-1]...)
	if je.buf.Cap() <= pooledBufMax {
		jsonEncPool.Put(je)
	}
	return dst, nil
}

// ----- binary primitives -----

var errTruncated = errors.New("truncated")

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func readBinUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, errTruncated
	}
	return v, b[n:], nil
}

func readBinVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, errTruncated
	}
	return v, b[n:], nil
}

func readBinInt(b []byte) (int, []byte, error) {
	v, rest, err := readBinVarint(b)
	return int(v), rest, err
}

func readBinString(b []byte) (string, []byte, error) {
	n, rest, err := readBinUvarint(b)
	if err != nil {
		return "", b, err
	}
	if n > uint64(len(rest)) {
		return "", b, errTruncated
	}
	return string(rest[:n]), rest[n:], nil
}

func readBinBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, b, errTruncated
	}
	return b[0] != 0, b[1:], nil
}

// ----- per-type bodies -----
//
// Slice counts decode to nil when zero, matching what a JSON round trip
// of an omitempty field yields — the differential fuzz (FuzzCodecRoundTrip)
// holds the two codecs to identical decoded values.

func queryArg(body any) (*Query, bool) {
	switch b := body.(type) {
	case *Query:
		return b, true
	case Query:
		return &b, true
	}
	return nil, false
}

func encQueryBody(dst []byte, body any) ([]byte, bool) {
	q, ok := queryArg(body)
	if !ok {
		return dst, false
	}
	dst = appendBinString(dst, q.Target)
	dst = appendBinString(dst, string(q.Mode))
	dst = binary.AppendVarint(dst, int64(q.Hops))
	dst = binary.AppendVarint(dst, int64(q.TTL))
	dst = binary.AppendUvarint(dst, uint64(len(q.Path)))
	for _, p := range q.Path {
		dst = appendBinString(dst, p)
	}
	dst = appendBinBool(dst, q.Trace)
	return appendHopRecords(dst, q.HopTrace), true
}

func decQueryBody(b []byte) (any, []byte, error) {
	var q Query
	var err error
	if q.Target, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	var mode string
	if mode, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	q.Mode = QueryMode(mode)
	if q.Hops, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	if q.TTL, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	if q.Path, b, err = readBinStrings(b); err != nil {
		return nil, b, err
	}
	if q.Trace, b, err = readBinBool(b); err != nil {
		return nil, b, err
	}
	if q.HopTrace, b, err = readHopRecords(b); err != nil {
		return nil, b, err
	}
	return &q, b, nil
}

func queryResultArg(body any) (*QueryResult, bool) {
	switch b := body.(type) {
	case *QueryResult:
		return b, true
	case QueryResult:
		return &b, true
	}
	return nil, false
}

func encQueryResultBody(dst []byte, body any) ([]byte, bool) {
	r, ok := queryResultArg(body)
	if !ok {
		return dst, false
	}
	dst = appendBinBool(dst, r.Found)
	dst = appendBinString(dst, r.Answer)
	dst = binary.AppendVarint(dst, int64(r.Hops))
	dst = binary.AppendUvarint(dst, uint64(len(r.Path)))
	for _, p := range r.Path {
		dst = appendBinString(dst, p)
	}
	dst = appendBinString(dst, r.Reason)
	dst = appendBinBool(dst, r.Cached)
	return appendHopRecords(dst, r.HopTrace), true
}

func decQueryResultBody(b []byte) (any, []byte, error) {
	var r QueryResult
	var err error
	if r.Found, b, err = readBinBool(b); err != nil {
		return nil, b, err
	}
	if r.Answer, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if r.Hops, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	if r.Path, b, err = readBinStrings(b); err != nil {
		return nil, b, err
	}
	if r.Reason, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if r.Cached, b, err = readBinBool(b); err != nil {
		return nil, b, err
	}
	if r.HopTrace, b, err = readHopRecords(b); err != nil {
		return nil, b, err
	}
	return &r, b, nil
}

func appendHopRecords(dst []byte, hs []HopRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(hs)))
	for i := range hs {
		h := &hs[i]
		dst = appendBinString(dst, h.Node)
		dst = binary.AppendVarint(dst, int64(h.Index))
		dst = appendBinString(dst, string(h.Mode))
		dst = binary.AppendVarint(dst, h.DurationMicros)
	}
	return dst
}

func readHopRecords(b []byte) ([]HopRecord, []byte, error) {
	n, b, err := readBinUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if n == 0 {
		return nil, b, nil
	}
	// Every record spends at least 4 bytes, so the count is bounded by
	// the remaining body — a forged count cannot force a giant make.
	if n > uint64(len(b)) {
		return nil, b, errTruncated
	}
	hs := make([]HopRecord, n)
	for i := range hs {
		h := &hs[i]
		if h.Node, b, err = readBinString(b); err != nil {
			return nil, b, err
		}
		if h.Index, b, err = readBinInt(b); err != nil {
			return nil, b, err
		}
		var mode string
		if mode, b, err = readBinString(b); err != nil {
			return nil, b, err
		}
		h.Mode = QueryMode(mode)
		if h.DurationMicros, b, err = readBinVarint(b); err != nil {
			return nil, b, err
		}
	}
	return hs, b, nil
}

func readBinStrings(b []byte) ([]string, []byte, error) {
	n, b, err := readBinUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if n > uint64(len(b)) {
		return nil, b, errTruncated
	}
	ss := make([]string, n)
	for i := range ss {
		if ss[i], b, err = readBinString(b); err != nil {
			return nil, b, err
		}
	}
	return ss, b, nil
}

func childSampleArg(body any) (*ChildSample, bool) {
	switch b := body.(type) {
	case *ChildSample:
		return b, true
	case ChildSample:
		return &b, true
	}
	return nil, false
}

func encChildSampleBody(dst []byte, body any) ([]byte, bool) {
	c, ok := childSampleArg(body)
	if !ok {
		return dst, false
	}
	return binary.AppendVarint(dst, int64(c.Count)), true
}

func decChildSampleBody(b []byte) (any, []byte, error) {
	var c ChildSample
	var err error
	if c.Count, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	return &c, b, nil
}

func childSampleResultArg(body any) (*ChildSampleResult, bool) {
	switch b := body.(type) {
	case *ChildSampleResult:
		return b, true
	case ChildSampleResult:
		return &b, true
	}
	return nil, false
}

func encChildSampleResultBody(dst []byte, body any) ([]byte, bool) {
	c, ok := childSampleResultArg(body)
	if !ok {
		return dst, false
	}
	return appendPeers(dst, c.Children), true
}

func decChildSampleResultBody(b []byte) (any, []byte, error) {
	var c ChildSampleResult
	var err error
	if c.Children, b, err = readPeers(b); err != nil {
		return nil, b, err
	}
	return &c, b, nil
}

func appendPeers(dst []byte, ps []Peer) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	for i := range ps {
		p := &ps[i]
		dst = binary.AppendVarint(dst, int64(p.Index))
		dst = appendBinString(dst, p.Name)
		dst = appendBinString(dst, p.Addr)
	}
	return dst
}

func readPeers(b []byte) ([]Peer, []byte, error) {
	n, b, err := readBinUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if n > uint64(len(b)) {
		return nil, b, errTruncated
	}
	ps := make([]Peer, n)
	for i := range ps {
		p := &ps[i]
		if p.Index, b, err = readBinInt(b); err != nil {
			return nil, b, err
		}
		if p.Name, b, err = readBinString(b); err != nil {
			return nil, b, err
		}
		if p.Addr, b, err = readBinString(b); err != nil {
			return nil, b, err
		}
	}
	return ps, b, nil
}

func notifyCCWArg(body any) (*NotifyCCW, bool) {
	switch b := body.(type) {
	case *NotifyCCW:
		return b, true
	case NotifyCCW:
		return &b, true
	}
	return nil, false
}

func encNotifyCCWBody(dst []byte, body any) ([]byte, bool) {
	n, ok := notifyCCWArg(body)
	if !ok {
		return dst, false
	}
	dst = binary.AppendVarint(dst, int64(n.Index))
	dst = appendBinString(dst, n.Name)
	return appendBinString(dst, n.Addr), true
}

func decNotifyCCWBody(b []byte) (any, []byte, error) {
	var n NotifyCCW
	var err error
	if n.Index, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	if n.Name, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if n.Addr, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	return &n, b, nil
}

func repairArg(body any) (*Repair, bool) {
	switch b := body.(type) {
	case *Repair:
		return b, true
	case Repair:
		return &b, true
	}
	return nil, false
}

func encRepairBody(dst []byte, body any) ([]byte, bool) {
	r, ok := repairArg(body)
	if !ok {
		return dst, false
	}
	dst = binary.AppendVarint(dst, int64(r.OriginIndex))
	dst = appendBinString(dst, r.OriginName)
	dst = appendBinString(dst, r.OriginAddr)
	dst = binary.AppendVarint(dst, int64(r.Hops))
	return binary.AppendVarint(dst, int64(r.TTL)), true
}

func decRepairBody(b []byte) (any, []byte, error) {
	var r Repair
	var err error
	if r.OriginIndex, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	if r.OriginName, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if r.OriginAddr, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if r.Hops, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	if r.TTL, b, err = readBinInt(b); err != nil {
		return nil, b, err
	}
	return &r, b, nil
}

func errorArg(body any) (*Error, bool) {
	switch b := body.(type) {
	case *Error:
		return b, true
	case Error:
		return &b, true
	}
	return nil, false
}

func encErrorBody(dst []byte, body any) ([]byte, bool) {
	e, ok := errorArg(body)
	if !ok {
		return dst, false
	}
	dst = appendBinString(dst, e.Reason)
	dst = appendBinString(dst, e.Code)
	return binary.AppendVarint(dst, e.RetryAfterMillis), true
}

func decErrorBody(b []byte) (any, []byte, error) {
	var e Error
	var err error
	if e.Reason, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if e.Code, b, err = readBinString(b); err != nil {
		return nil, b, err
	}
	if e.RetryAfterMillis, b, err = readBinVarint(b); err != nil {
		return nil, b, err
	}
	return &e, b, nil
}

// ----- typed-body Decode fast path -----

// assignBody copies a typed body into out without a JSON round trip.
// Bodies decoded from the wire (owned) are assigned shallowly — nothing
// else references their backing arrays. Bodies still owned by their
// sender (a Typed message delivered in-process by the Mem transport)
// deep-copy their slices, preserving JSON's you-get-your-own-copy
// semantics: a handler mutating its Query.Path must never race the
// sender's retry or a sibling handler.
func assignBody(body, out any, owned bool) bool {
	switch {
	case is[Query](body):
		q, _ := queryArg(body)
		o, ok := out.(*Query)
		if !ok {
			return false
		}
		*o = *q
		if !owned {
			o.Path = slices.Clone(q.Path)
			o.HopTrace = slices.Clone(q.HopTrace)
		}
	case is[QueryResult](body):
		r, _ := queryResultArg(body)
		o, ok := out.(*QueryResult)
		if !ok {
			return false
		}
		*o = *r
		if !owned {
			o.Path = slices.Clone(r.Path)
			o.HopTrace = slices.Clone(r.HopTrace)
		}
	case is[ChildSample](body):
		c, _ := childSampleArg(body)
		o, ok := out.(*ChildSample)
		if !ok {
			return false
		}
		*o = *c
	case is[ChildSampleResult](body):
		c, _ := childSampleResultArg(body)
		o, ok := out.(*ChildSampleResult)
		if !ok {
			return false
		}
		*o = *c
		if !owned {
			o.Children = slices.Clone(c.Children)
		}
	case is[NotifyCCW](body):
		n, _ := notifyCCWArg(body)
		o, ok := out.(*NotifyCCW)
		if !ok {
			return false
		}
		*o = *n
	case is[Repair](body):
		r, _ := repairArg(body)
		o, ok := out.(*Repair)
		if !ok {
			return false
		}
		*o = *r
	case is[Error](body):
		e, _ := errorArg(body)
		o, ok := out.(*Error)
		if !ok {
			return false
		}
		*o = *e
	default:
		return false
	}
	return true
}

// is reports whether body is T or *T.
func is[T any](body any) bool {
	switch body.(type) {
	case T, *T:
		return true
	}
	return false
}

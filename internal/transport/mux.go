package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// countingReader reports the bytes read off a mux connection to one
// side's metrics (hours_codec_decode_bytes_total).
type countingReader struct {
	r    io.Reader
	side func() *sideMetrics
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.side().read(n)
	return n, err
}

// errConnDraining reports that the peer announced GoAway for this
// connection; the frame was never sent, so redialing is safe.
var errConnDraining = errors.New("transport: connection draining")

// errWriteFailed marks a call whose request frame never left this side:
// the handler cannot have run, so the pool retries it on a fresh
// connection without consulting idempotency.
var errWriteFailed = errors.New("transport: request write failed")

// muxResult carries one demultiplexed response to its waiting caller.
type muxResult struct {
	msg wire.Message
	err error
}

// batchSettings parameterizes a connection's write coalescer.
type batchSettings struct {
	linger   time.Duration // adaptive linger ceiling (0: natural batching only)
	maxBytes int           // flush threshold
}

// muxConn is one multiplexed client connection: concurrent calls enqueue
// request frames tagged with fresh IDs on the connection's write
// coalescer, which packs them into single flushes (see wire.Coalescer);
// a single reader goroutine dispatches response frames to the
// per-request channels. A muxConn starts in the dialing state (ready
// open); callers may be assigned to it before the dial finishes and
// block on ready.
type muxConn struct {
	addr  string
	io    time.Duration
	batch batchSettings
	// side yields the dialing side's wire metrics (nil-safe; see
	// sideMetrics).
	side func() *sideMetrics

	ready   chan struct{} // closed once dial+hello completed (or failed)
	dialErr error         // set before ready closes

	conn net.Conn
	co   *wire.Coalescer // the only write path

	mu       sync.Mutex
	pending  map[uint64]chan muxResult
	nextID   uint64
	assigned int       // calls currently assigned by the pool
	idleAt   time.Time // when assigned last hit zero
	draining bool      // GoAway received: no new assignments
	dead     bool
	deadErr  error

	// onRetire detaches the conn from its pool slot exactly once, whether
	// it died or started draining.
	onRetire   func(*muxConn)
	retireOnce sync.Once

	// spawn runs the read loop and the flusher on pool-tracked goroutines
	// so the pool's Close can await their exit.
	spawn func(func())
	// onDead fires exactly once when the conn dies — it will never read
	// or write again — so the pool can drop its registration.
	onDead   func(*muxConn)
	deadOnce sync.Once
}

// died fires the one-time dead notification.
func (c *muxConn) died() {
	c.deadOnce.Do(func() { c.onDead(c) })
}

// inflightCount samples the number of exchanges awaiting responses; it
// drives the coalescer's adaptive linger.
func (c *muxConn) inflightCount() int {
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	return n
}

// dial establishes the connection and completes the mux handshake. Any
// failure — including a peer that accepts the TCP connection but does
// not ack the preface, or acks another protocol version — leaves dialErr
// wrapping ErrUnreachable; nothing is remembered about the address, so
// the next call simply dials again. It always closes ready.
func (c *muxConn) dial(ctx context.Context, dialTimeout time.Duration) {
	defer close(c.ready)
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err == nil {
		if err = c.handshake(conn); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		c.dialErr = fmt.Errorf("%w: %v", ErrUnreachable, err)
		c.markDead(c.dialErr)
		return
	}
	co := wire.NewCoalescer(wire.CoalescerConfig{
		Write: func(b []byte) error {
			if err := conn.SetWriteDeadline(time.Now().Add(c.io)); err != nil {
				return err
			}
			n, err := conn.Write(b)
			c.side().wrote(n)
			return err
		},
		MaxBytes:  c.batch.maxBytes,
		MaxLinger: c.batch.linger,
		Inflight:  c.inflightCount,
		OnFlush:   func(frames, bytes int, linger time.Duration) { c.side().flushed(frames, bytes, linger) },
		OnError: func(err error) {
			// Runs on the flusher goroutine: fail calls Shutdown (not
			// Close), so this cannot deadlock.
			c.fail(fmt.Errorf("%w: %v", ErrUnreachable, err))
		},
	})
	c.mu.Lock()
	c.conn = conn
	c.co = co
	dead := c.dead
	c.mu.Unlock()
	if dead { // lost a race with fail (e.g. pool closed mid-dial)
		co.Shutdown() // never ran; just marks it closed
		conn.Close()
		return
	}
	c.spawn(co.Run)
	c.spawn(c.readLoop)
}

// handshake exchanges the mux preface and ack under the IO deadline,
// then clears it: per-exchange bounds are enforced by the callers'
// timers and the write deadlines.
func (c *muxConn) handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(c.io)); err != nil {
		return err
	}
	if err := wire.WriteHello(conn); err != nil {
		return err
	}
	if err := wire.ReadHello(conn); err != nil {
		return err
	}
	return conn.SetDeadline(time.Time{})
}

// readLoop demultiplexes response frames until the connection breaks.
// The scratch buffer is reused across frames: decoded payloads are
// copied out by the codec, so the next read may clobber it.
func (c *muxConn) readLoop() {
	r := &countingReader{r: c.conn, side: c.side}
	var scratch []byte
	for {
		var kind wire.FrameKind
		var id uint64
		var msg wire.Message
		var err error
		kind, id, msg, scratch, err = wire.ReadMuxFrame(r, scratch)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrUnreachable, err))
			return
		}
		switch kind {
		case wire.FrameResponse:
			c.mu.Lock()
			ch := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- muxResult{msg: msg}
			}
		case wire.FrameGoAway:
			// Stop taking new work; in-flight responses keep flowing
			// until the peer closes the connection.
			c.mu.Lock()
			c.draining = true
			c.mu.Unlock()
			c.retire()
		default:
			c.fail(fmt.Errorf("%w: unexpected %s frame", ErrUnreachable, kind))
			return
		}
	}
}

// retire detaches the conn from its pool slot (idempotent).
func (c *muxConn) retire() {
	c.retireOnce.Do(func() { c.onRetire(c) })
}

// markDead flags the conn dead without touching the socket (dial-stage
// failures).
func (c *muxConn) markDead(err error) {
	c.mu.Lock()
	c.dead = true
	c.deadErr = err
	c.mu.Unlock()
	c.died()
	c.retire()
}

// fail marks the conn broken: every pending call completes with err, the
// socket closes, and the pool slot is freed so the next call redials.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.deadErr = err
	pending := c.pending
	c.pending = make(map[uint64]chan muxResult)
	conn := c.conn
	co := c.co
	c.mu.Unlock()
	if co != nil {
		// Async shutdown: fail may be running on the flusher goroutine
		// itself (flush failure), which Close would deadlock awaiting.
		co.Shutdown()
	}
	if conn != nil {
		conn.Close()
	}
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
	c.died()
	c.retire()
}

// usable reports whether the pool may assign another call to this conn.
func (c *muxConn) usable(maxInflight int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.dead && !c.draining && c.assigned < maxInflight
}

// close shuts the connection down, failing any pending calls.
func (c *muxConn) close() {
	c.fail(fmt.Errorf("%w: connection closed", ErrUnreachable))
}

// idleSince returns the time assigned last hit zero (zero time if busy).
func (c *muxConn) idleSince() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.assigned > 0 {
		return time.Time{}, false
	}
	return c.idleAt, true
}

// call performs one multiplexed exchange. A write failure means the
// request never left, so the returned error unwraps to errWriteFailed
// and the pool may transparently redial; a missing response is
// indistinguishable from executed-but-lost and surfaces as plain
// ErrUnreachable for the retry layer to judge.
func (c *muxConn) call(ctx context.Context, req wire.Message) (wire.Message, error) {
	select {
	case <-c.ready:
	case <-ctx.Done():
		return wire.Message{}, ctx.Err()
	}
	if c.dialErr != nil {
		return wire.Message{}, c.dialErr
	}
	c.mu.Lock()
	if c.dead {
		err := c.deadErr
		c.mu.Unlock()
		// Died before this request was sent: safe to redial.
		return wire.Message{}, fmt.Errorf("%w: %v", errWriteFailed, err)
	}
	if c.draining {
		c.mu.Unlock()
		return wire.Message{}, errConnDraining
	}
	c.nextID++
	id := c.nextID
	ch := make(chan muxResult, 1)
	c.pending[id] = ch
	co := c.co
	c.mu.Unlock()

	// An enqueue error means the frame was never buffered (a failed flush
	// can only involve frames enqueued before it), so redialing stays
	// safe.
	if err := co.WriteMuxFrame(wire.FrameRequest, id, req); err != nil {
		c.forget(id)
		c.fail(fmt.Errorf("%w: %v", ErrUnreachable, err))
		return wire.Message{}, fmt.Errorf("%w: %v", errWriteFailed, err)
	}

	timer := time.NewTimer(c.io)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.msg, res.err
	case <-ctx.Done():
		// The request may still execute; only this caller gives up. The
		// conn stays usable and a late response is discarded by forget.
		c.forget(id)
		return wire.Message{}, ctx.Err()
	case <-timer.C:
		// The exchange outlived the IO budget: the conn is suspect (hung
		// peer, half-open socket). Retire it so the pool redials.
		c.forget(id)
		c.fail(fmt.Errorf("%w: response timeout", ErrUnreachable))
		return wire.Message{}, fmt.Errorf("%w: response timeout after %v", ErrUnreachable, c.io)
	}
}

// forget abandons a pending request ID.
func (c *muxConn) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

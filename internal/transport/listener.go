package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Listen implements Transport with the shared listener: it serves the
// multiplexed protocol and one-shot framing, selected per connection by
// sniffing the first four bytes (see wire.IsMuxPreface). The returned
// closer is a *PooledListener.
func (p *PooledTCP) Listen(addr string, h Handler) (io.Closer, error) {
	return listen(addr, h, p.cfg, p.serverSide)
}

// listen starts the one listener implementation behind both socket
// transports. cfg must have its defaults filled; side yields the
// listening side's metrics (nil-safe).
func listen(addr string, h Handler, cfg PoolConfig, side func() *sideMetrics) (*PooledListener, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: listen needs a handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &muxListener{
		ln:          ln,
		h:           h,
		io:          cfg.IOTimeout,
		idle:        2 * cfg.IdleTimeout,
		maxInflight: cfg.MaxInflightPerConn,
		batch:       cfg.batch(),
		side:        side,
		stop:        make(chan struct{}),
		conns:       make(map[net.Conn]*wire.Coalescer),
	}
	l.baseCtx, l.cancel = context.WithCancel(context.Background())
	l.wg.Add(1)
	go l.acceptLoop()
	return &PooledListener{l: l}, nil
}

// PooledListener is the closer both socket transports' Listen returns;
// it exposes the bound address.
type PooledListener struct {
	l *muxListener
}

// Addr returns the bound address (useful with ":0").
func (p *PooledListener) Addr() string { return p.l.ln.Addr().String() }

// Close stops accepting, announces GoAway on every mux connection,
// cancels in-flight handlers, closes the sockets, and waits for handlers
// to drain.
func (p *PooledListener) Close() error {
	var err error
	p.l.once.Do(func() {
		close(p.l.stop)
		p.l.goAwayAll()
		p.l.cancel()
		err = p.l.ln.Close()
		p.l.closeConns()
		p.l.wg.Wait()
	})
	return err
}

// muxListener serves sniffed mux and one-shot connections until closed.
type muxListener struct {
	ln          net.Listener
	h           Handler
	io          time.Duration
	idle        time.Duration
	maxInflight int
	batch       batchSettings       // response coalescing
	side        func() *sideMetrics // listening side's wire metrics (nil-safe)

	wg      sync.WaitGroup
	once    sync.Once
	stop    chan struct{}
	baseCtx context.Context // canceled on Close so in-flight handlers stop
	cancel  context.CancelFunc

	mu    sync.Mutex
	conns map[net.Conn]*wire.Coalescer // live mux conns and their write path
}

// track registers a live mux conn with its coalescer.
func (l *muxListener) track(conn net.Conn, co *wire.Coalescer) {
	l.mu.Lock()
	l.conns[conn] = co
	l.mu.Unlock()
}

// untrack removes a finished conn.
func (l *muxListener) untrack(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// goAwayTimeout bounds each flush once the listener is closing: a peer
// that stopped reading must not stall Close for a full IO timeout.
const goAwayTimeout = 100 * time.Millisecond

// writeDeadline is the deadline of one response flush.
func (l *muxListener) writeDeadline() time.Time {
	select {
	case <-l.stop:
		return time.Now().Add(goAwayTimeout)
	default:
		return time.Now().Add(l.io)
	}
}

// goAwayAll best-effort announces shutdown to every mux peer so clients
// retire the connections instead of assigning new requests to them. The
// frame rides the connection's coalescer behind any buffered responses;
// closing the coalescer flushes both before the sockets are torn down.
func (l *muxListener) goAwayAll() {
	l.mu.Lock()
	cos := make([]*wire.Coalescer, 0, len(l.conns))
	for _, co := range l.conns {
		cos = append(cos, co)
	}
	l.mu.Unlock()
	for _, co := range cos {
		_ = co.WriteMuxFrame(wire.FrameGoAway, 0, wire.Message{}) // best effort
		_ = co.Close()
	}
}

// closeConns force-closes every tracked connection.
func (l *muxListener) closeConns() {
	l.mu.Lock()
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// acceptBackoff bounds the accept-error retry delay: 5ms doubling to 1s,
// the net/http Server schedule. Without it, a persistent accept error
// (EMFILE under fd exhaustion) turns the loop into a hot spin.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// acceptLoop accepts until Close; transient accept errors back off
// exponentially (capped).
func (l *muxListener) acceptLoop() {
	defer l.wg.Done()
	delay := time.Duration(0)
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.stop:
				return
			default:
			}
			if delay == 0 {
				delay = acceptBackoffMin
			} else if delay *= 2; delay > acceptBackoffMax {
				delay = acceptBackoffMax
			}
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-l.stop:
				t.Stop()
				return
			}
			continue
		}
		delay = 0
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn sniffs the framing and dispatches: the mux preface selects
// the multiplexed loop, anything else is a one-shot length prefix and the
// connection serves one request. A preface of another protocol version
// is not acked: the connection just closes.
func (l *muxListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(l.io)); err != nil {
		return
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	if !wire.IsMuxPreface(hdr) {
		l.serveOneShot(conn, hdr)
		return
	}
	if err := wire.FinishHello(conn); err != nil {
		return
	}
	if err := wire.WriteHello(conn); err != nil {
		return
	}
	l.serveMux(conn)
}

// handle runs the handler for one request. Its context descends from the
// listener's, so Close cancels in-flight handlers instead of letting
// them outlive the listener until their IO timeout; the caller's
// propagated deadline budget, if tighter, bounds it further. A handler
// failure becomes an error response.
func (l *muxListener) handle(req wire.Message) wire.Message {
	ctx, cancel := handlerContext(l.baseCtx, l.io, req.DL)
	defer cancel()
	req.DL = 0 // consumed into the context; handlers never see wire budgets
	resp, err := l.h(ctx, req)
	if err != nil {
		return errorMessage(err)
	}
	return resp
}

// serveOneShot finishes a one-shot exchange whose length prefix was
// sniffed, under the connection deadline serveConn set.
func (l *muxListener) serveOneShot(conn net.Conn, hdr [4]byte) {
	req, err := wire.ReadFrameWithHeader(conn, hdr)
	if err != nil {
		return
	}
	_ = wire.WriteFrame(conn, l.handle(req)) // peer handles missing responses
}

// serveMux runs the multiplexed request loop: each request frame is
// handled in its own goroutine and answered with a same-ID response
// frame; a bounded semaphore enforces the per-conn in-flight cap by
// pausing the read loop (backpressure) when the peer over-pipelines.
func (l *muxListener) serveMux(conn net.Conn) {
	sem := make(chan struct{}, l.maxInflight)

	// Response coalescing: handler goroutines enqueue response frames and
	// a per-connection flusher batches them onto the socket, so a node
	// answering a pipelined burst pays one write syscall for many
	// responses. The semaphore occupancy doubles as the in-flight signal
	// for the adaptive linger.
	co := wire.NewCoalescer(wire.CoalescerConfig{
		Write: func(b []byte) error {
			if err := conn.SetWriteDeadline(l.writeDeadline()); err != nil {
				return err
			}
			n, err := conn.Write(b)
			l.side().wrote(n)
			return err
		},
		MaxBytes:  l.batch.maxBytes,
		MaxLinger: l.batch.linger,
		Inflight:  func() int { return len(sem) },
		OnFlush:   func(frames, bytes int, linger time.Duration) { l.side().flushed(frames, bytes, linger) },
		// A failed flush kills the socket, which breaks the read loop;
		// Shutdown semantics are implicit (the flusher exits itself).
		OnError: func(error) { conn.Close() },
	})
	l.track(conn, co)
	defer l.untrack(conn)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		co.Run()
	}()
	// Runs after handlers.Wait below: flush the final responses before
	// serveConn closes the socket.
	defer co.Close()

	var handlers sync.WaitGroup
	defer handlers.Wait()
	r := &countingReader{r: conn, side: l.side}
	var scratch []byte
	for {
		if err := conn.SetReadDeadline(time.Now().Add(l.idle + l.io)); err != nil {
			return
		}
		var kind wire.FrameKind
		var id uint64
		var req wire.Message
		var err error
		kind, id, req, scratch, err = wire.ReadMuxFrame(r, scratch)
		if err != nil || kind != wire.FrameRequest {
			// A broken connection, a GoAway (the client is done with it),
			// or a protocol error (clients never send responses).
			return
		}
		select {
		case sem <- struct{}{}:
		case <-l.stop:
			return
		}
		handlers.Add(1)
		l.wg.Add(1)
		go func(id uint64, req wire.Message) {
			defer handlers.Done()
			defer l.wg.Done()
			defer func() { <-sem }()
			_ = co.WriteMuxFrame(wire.FrameResponse, id, l.handle(req)) // peer handles missing responses
		}(id, req)
	}
}

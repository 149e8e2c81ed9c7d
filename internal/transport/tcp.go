package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// TCP is a Transport over real sockets speaking one-shot framing: one
// length-prefixed JSON request and response per connection, dialed per
// call. It is the human-debuggable path (what `hoursq -codec v1` speaks)
// and the dial-per-call baseline; production paths use PooledTCP, which
// multiplexes concurrent requests over persistent pooled connections.
type TCP struct {
	// DialTimeout bounds connection establishment; zero means 2s.
	DialTimeout time.Duration
	// IOTimeout bounds each request/response exchange; zero means 5s.
	IOTimeout time.Duration
}

var _ Transport = (*TCP)(nil)

// config maps the two timeouts onto the socket transports' shared
// defaults.
func (t *TCP) config() PoolConfig {
	return PoolConfig{DialTimeout: t.DialTimeout, IOTimeout: t.IOTimeout}.withDefaults()
}

// Listen implements Transport with the shared listener (see
// listener.go), so a node on this transport also answers mux clients.
// addr is a host:port; ":0" picks a free port — read it back with Addr
// on the returned closer (type *PooledListener).
func (t *TCP) Listen(addr string, h Handler) (io.Closer, error) {
	return listen(addr, h, t.config(), func() *sideMetrics { return nil })
}

// Call implements Transport. Context cancellation is honored at every
// stage: DialContext aborts the dial, and a watcher goroutine forces the
// connection deadline so a cancel mid-write or mid-read unblocks the
// exchange promptly instead of waiting out the IO timeout.
func (t *TCP) Call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return wire.Message{}, fmt.Errorf("call %s: %w: %v", addr, ErrUnreachable, err)
	}
	cfg := t.config()
	d := net.Dialer{Timeout: cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return wire.Message{}, fmt.Errorf("call %s: %w: %v", addr, ErrUnreachable, err)
	}
	defer conn.Close()
	deadline := time.Now().Add(cfg.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return wire.Message{}, fmt.Errorf("call %s: set deadline: %w", addr, err)
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			// Expire the deadline: the blocked read/write returns a
			// timeout error immediately and the deferred Close cleans
			// the connection up.
			_ = conn.SetDeadline(time.Unix(1, 0))
		case <-watchDone:
		}
	}()
	callErr := func(err error) error {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("call %s: %w: %v", addr, ctxErr, err)
		}
		return fmt.Errorf("call %s: %w: %v", addr, ErrUnreachable, err)
	}
	if err := wire.WriteFrame(conn, stampDeadline(ctx, req)); err != nil {
		return wire.Message{}, callErr(err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		return wire.Message{}, callErr(err)
	}
	return finishCall(addr, resp)
}

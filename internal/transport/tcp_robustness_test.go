package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// failingListener always errors on Accept, modeling persistent EMFILE-style
// accept failure.
type failingListener struct {
	accepts atomic.Int64
	closed  atomic.Bool
}

func (f *failingListener) Accept() (net.Conn, error) {
	f.accepts.Add(1)
	return nil, fmt.Errorf("accept: too many open files")
}

func (f *failingListener) Close() error {
	f.closed.Store(true)
	return nil
}

func (f *failingListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestAcceptLoopBacksOffOnPersistentErrors is the regression test for the
// accept hot spin: under a persistently failing Accept, the loop must
// sleep between attempts instead of burning a core. Without backoff this
// loop iterates millions of times in 100ms; with the 5ms-doubling-to-1s
// schedule it gets through only a handful.
func TestAcceptLoopBacksOffOnPersistentErrors(t *testing.T) {
	fl := &failingListener{}
	l := &muxListener{ln: fl, h: echoHandler, io: time.Second, stop: make(chan struct{})}
	l.baseCtx, l.cancel = context.WithCancel(context.Background())
	l.wg.Add(1)
	go l.acceptLoop()

	time.Sleep(100 * time.Millisecond)
	close(l.stop)
	l.cancel()
	l.wg.Wait()

	if n := fl.accepts.Load(); n > 50 {
		t.Errorf("accept loop spun %d times in 100ms; backoff missing", n)
	} else if n == 0 {
		t.Error("accept loop never ran")
	}
}

// TestTCPCloseCancelsInflightHandlers verifies that the listener's Close
// cancels the context of handlers that are still running, rather than
// letting them block until their IO timeout.
func TestTCPCloseCancelsInflightHandlers(t *testing.T) {
	started := make(chan struct{})
	sawCancel := make(chan struct{})
	tr := &TCP{IOTimeout: 30 * time.Second}
	closer, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		close(started)
		select {
		case <-ctx.Done():
			close(sawCancel)
			return wire.Message{}, ctx.Err()
		case <-time.After(25 * time.Second):
			return wire.Message{Type: wire.TypeProbeResult}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{})
	go func() {
		_ = closer.Close()
		close(done)
	}()
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("handler context not cancelled by Close")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after cancelling handlers")
	}
}

// TestTCPCallCancelledBeforeDial: a context cancelled before the dial
// returns promptly without touching the network.
func TestTCPCallCancelledBeforeDial(t *testing.T) {
	tr := &TCP{DialTimeout: 10 * time.Second, IOTimeout: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := tr.Call(ctx, "127.0.0.1:1", wire.Message{Type: wire.TypeProbe})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrUnreachable) && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrUnreachable- or ctx-wrapped", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled dial took %v", elapsed)
	}
}

// TestTCPCallCancelledMidRead: cancelling the context while the call is
// blocked reading the response returns promptly (well before the IO
// timeout) and closes the connection.
func TestTCPCallCancelledMidRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var srvConns sync.WaitGroup
	srvConns.Add(1)
	accepted := make(chan net.Conn, 1)
	go func() {
		defer srvConns.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
		// Read the request, then never respond: the client blocks in
		// ReadFrame until its context is cancelled. The second read
		// blocks until the client closes the connection (EOF).
		_, _ = wire.ReadFrame(conn)
		_, _ = wire.ReadFrame(conn)
	}()

	tr := &TCP{DialTimeout: 2 * time.Second, IOTimeout: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = tr.Call(ctx, ln.Addr().String(), wire.Message{Type: wire.TypeProbe})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want error from cancelled call")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ctx- or ErrUnreachable-wrapped", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled mid-read call took %v, want prompt return", elapsed)
	}
	// The client connection must be closed: the server's pending read
	// unblocks with EOF rather than hanging to the IO timeout.
	srvDone := make(chan struct{})
	go func() {
		srvConns.Wait()
		close(srvDone)
	}()
	select {
	case <-srvDone:
	case <-time.After(5 * time.Second):
		t.Error("server read still blocked; client connection not closed")
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

package transport

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// requireNoPoolGoroutines fails the test if any of the pool's background
// goroutines — the idle janitor, connection read loops, or async dials —
// are still running. Goroutine exits race the Close return by design
// (bg.Wait covers tracked ones, but scheduler visibility in the stack
// dump can lag), so the scan retries briefly before declaring a leak.
func requireNoPoolGoroutines(t *testing.T) {
	t.Helper()
	needles := []string{"janitorLoop", "readLoop", "(*muxConn).dial"}
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked := ""
		for _, n := range needles {
			if strings.Contains(stacks, n) {
				leaked = n
				break
			}
		}
		if leaked == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %s still running after close\n%s", leaked, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolCloseReapsJanitorAndReadLoops pins the shutdown ordering fix:
// closing a pool that has live connections and a running janitor must
// terminate every background goroutine, not just drain the calls.
func TestPoolCloseReapsJanitorAndReadLoops(t *testing.T) {
	srv := NewPooledTCP(PoolConfig{})
	closer, err := srv.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()
	cli := NewPooledTCP(PoolConfig{IdleTimeout: 50 * time.Millisecond})
	if _, err := cli.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoPoolGoroutines(t)
}

// TestStackedCloseMidFlightNoLeak closes a full transport stack while a
// call is still in flight: Close must wait the call out and then reap
// the janitor and read loops rather than orphaning them.
func TestStackedCloseMidFlightNoLeak(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv := NewPooledTCP(PoolConfig{})
	closer, err := srv.Listen("127.0.0.1:0", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		entered <- struct{}{}
		<-release
		return wire.Message{Type: wire.TypeProbeResult}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()

	st, err := NewStack(WithPool(PoolConfig{IdleTimeout: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = st.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe})
	}()
	<-entered // the call is mid-flight inside the handler
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoPoolGoroutines(t)
}

// TestPoolCloseReapsGoAwayDrainedConns covers the subtle case the
// shutdown fix exists for: a server GoAway detaches the client's mux
// connection from the peer list, so a later client Close cannot find it
// there — the connection registry and background WaitGroup must still
// reap its read loop.
func TestPoolCloseReapsGoAwayDrainedConns(t *testing.T) {
	srv := NewPooledTCP(PoolConfig{})
	closer, err := srv.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()
	cli := NewPooledTCP(PoolConfig{})
	if _, err := cli.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	// Server shutdown announces GoAway on the client's connection,
	// marking it draining/detached client-side.
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the GoAway frame land
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoPoolGoroutines(t)
}

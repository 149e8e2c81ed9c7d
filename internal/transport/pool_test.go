package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// poolPair builds a pooled transport plus a pooled listener serving h,
// returning the transport, the bound address, and a cleanup func.
func poolPair(t testing.TB, cfg PoolConfig, h Handler) (*PooledTCP, string) {
	t.Helper()
	p := NewPooledTCP(cfg)
	closer, err := p.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = p.Close()
		_ = closer.Close()
	})
	return p, closer.(*PooledListener).Addr()
}

func TestPooledRoundTrip(t *testing.T) {
	p, addr := poolPair(t, PoolConfig{}, echoHandler)
	req, err := wire.New(wire.TypeProbe, wire.TableInfo{Name: "pooled"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Call(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeProbeResult {
		t.Errorf("resp type = %v", resp.Type)
	}
	var ti wire.TableInfo
	if err := resp.Decode(&ti); err != nil {
		t.Fatal(err)
	}
	if ti.Name != "pooled" {
		t.Errorf("payload round trip = %+v", ti)
	}
}

// TestPooledConnReuse drives many serial calls and checks exactly one
// connection was dialed, with every later call reusing it.
func TestPooledConnReuse(t *testing.T) {
	reg := obs.NewRegistry()
	p, addr := poolPair(t, PoolConfig{}, echoHandler)
	p.SetMetrics(reg)
	ctx := context.Background()
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("hours_pool_dials_total").Value(); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
	if got := reg.Counter("hours_pool_conn_reuse_total").Value(); got != calls-1 {
		t.Errorf("reuse = %d, want %d", got, calls-1)
	}
}

// TestPooledConcurrentDemux pipelines many concurrent calls with distinct
// payloads over a small pool and checks every response is demultiplexed
// back to its own caller. Run with -race.
func TestPooledConcurrentDemux(t *testing.T) {
	h := func(ctx context.Context, req wire.Message) (wire.Message, error) {
		var ti wire.TableInfoResult
		if err := req.Decode(&ti); err != nil {
			return wire.Message{}, err
		}
		// Stagger responses so they complete out of submission order.
		time.Sleep(time.Duration(ti.N%7) * time.Millisecond)
		return wire.New(wire.TypeProbeResult, ti)
	}
	p, addr := poolPair(t, PoolConfig{MaxConnsPerPeer: 2, MaxInflightPerConn: 8}, h)
	ctx := context.Background()
	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := wire.New(wire.TypeProbe, wire.TableInfoResult{N: i, Index: i})
			if err != nil {
				errs <- err
				return
			}
			resp, err := p.Call(ctx, addr, req)
			if err != nil {
				errs <- err
				return
			}
			var ti wire.TableInfoResult
			if err := resp.Decode(&ti); err != nil {
				errs <- err
				return
			}
			if ti.N != i {
				errs <- fmt.Errorf("caller %d got response for %d", i, ti.N)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPooledInflightCap checks the semaphore bounds server-side
// concurrency at MaxConnsPerPeer × MaxInflightPerConn.
func TestPooledInflightCap(t *testing.T) {
	var mu sync.Mutex
	cur, peak := 0, 0
	h := func(ctx context.Context, req wire.Message) (wire.Message, error) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
		return wire.Message{Type: wire.TypeProbeResult}, nil
	}
	p, addr := poolPair(t, PoolConfig{MaxConnsPerPeer: 1, MaxInflightPerConn: 2}, h)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Errorf("peak concurrent handlers = %d, want <= 2", peak)
	}
}

// TestPooledIdleEviction sets a tiny idle timeout and checks the janitor
// closes the idle connection, after which the next call redials.
func TestPooledIdleEviction(t *testing.T) {
	reg := obs.NewRegistry()
	p, addr := poolPair(t, PoolConfig{IdleTimeout: 30 * time.Millisecond}, echoHandler)
	p.SetMetrics(reg)
	ctx := context.Background()
	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	evictions := reg.Counter("hours_pool_idle_evictions_total")
	deadline := time.Now().Add(2 * time.Second)
	for evictions.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if evictions.Value() == 0 {
		t.Fatal("idle connection never evicted")
	}
	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatalf("call after eviction: %v", err)
	}
	if got := reg.Counter("hours_pool_dials_total").Value(); got != 2 {
		t.Errorf("dials = %d, want 2 (initial + post-eviction)", got)
	}
}

// TestPooledBrokenConnRedial restarts the server between calls: the
// pooled connection to the first incarnation breaks, and the next call
// must transparently land on a fresh connection.
func TestPooledBrokenConnRedial(t *testing.T) {
	p := NewPooledTCP(PoolConfig{IOTimeout: 2 * time.Second})
	defer p.Close()
	closer, err := p.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()
	ctx := context.Background()
	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	// Close sends GoAway and tears the server down; the client conn
	// retires. Rebind the same port for the second incarnation.
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	closer2, err := p.Listen(addr, echoHandler)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer closer2.Close()
	// Give the client's read loop a moment to observe the close.
	time.Sleep(20 * time.Millisecond)
	if _, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
}

func TestPooledRemoteError(t *testing.T) {
	p, addr := poolPair(t, PoolConfig{}, func(ctx context.Context, req wire.Message) (wire.Message, error) {
		return wire.Message{}, errors.New("handler exploded")
	})
	_, err := p.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe})
	if err == nil || errors.Is(err, ErrUnreachable) {
		t.Errorf("remote error surfaced as %v", err)
	}
}

func TestPooledUnreachable(t *testing.T) {
	p := NewPooledTCP(PoolConfig{DialTimeout: 200 * time.Millisecond})
	defer p.Close()
	_, err := p.Call(context.Background(), "127.0.0.1:1", wire.Message{Type: wire.TypeProbe})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestPooledCallAfterClose(t *testing.T) {
	p, addr := poolPair(t, PoolConfig{}, echoHandler)
	if _, err := p.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("double close should be safe")
	}
	_, err := p.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("call after close err = %v, want ErrClosed", err)
	}
}

func TestPooledContextCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var first sync.Once
	p, addr := poolPair(t, PoolConfig{IOTimeout: 10 * time.Second}, func(ctx context.Context, req wire.Message) (wire.Message, error) {
		// Only the first request hangs — until test cleanup, ignoring even
		// the propagated deadline, like a truly wedged server; the
		// post-cancel call must sail through on the same (still healthy)
		// connection.
		hung := false
		first.Do(func() { hung = true })
		if hung {
			<-block
		}
		return wire.Message{Type: wire.TypeProbeResult}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Call(ctx, addr, wire.Message{Type: wire.TypeProbe})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancel did not unblock the call promptly")
	}
	// The connection survives an abandoned call: the next call reuses it.
	if _, err := p.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatalf("call after canceled call: %v", err)
	}
}

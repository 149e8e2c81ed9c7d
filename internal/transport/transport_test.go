package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// echoHandler responds with the request payload under a probe-result type.
func echoHandler(ctx context.Context, req wire.Message) (wire.Message, error) {
	return wire.Message{Type: wire.TypeProbeResult, Payload: req.Payload}, nil
}

func TestMemListenCallRoundTrip(t *testing.T) {
	m := NewMem()
	closer, err := m.Listen("mem://a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	req, err := wire.New(wire.TypeProbe, wire.TableInfo{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Call(context.Background(), "mem://a", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeProbeResult {
		t.Errorf("resp type = %v", resp.Type)
	}
}

func TestMemValidation(t *testing.T) {
	m := NewMem()
	if _, err := m.Listen("", echoHandler); err == nil {
		t.Error("empty addr: want error")
	}
	if _, err := m.Listen("a", nil); err == nil {
		t.Error("nil handler: want error")
	}
	if _, err := m.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("a", echoHandler); err == nil {
		t.Error("duplicate bind: want error")
	}
}

func TestMemUnreachable(t *testing.T) {
	m := NewMem()
	_, err := m.Call(context.Background(), "mem://nobody", wire.Message{Type: wire.TypeProbe})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestMemSuppression(t *testing.T) {
	m := NewMem()
	if _, err := m.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	m.Suppress("a", true)
	if !m.Suppressed("a") {
		t.Error("Suppressed not reported")
	}
	_, err := m.Call(context.Background(), "a", wire.Message{Type: wire.TypeProbe})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("suppressed call err = %v, want ErrUnreachable", err)
	}
	m.Suppress("a", false)
	if _, err := m.Call(context.Background(), "a", wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Errorf("after unsuppress: %v", err)
	}
}

func TestMemCloseUnbinds(t *testing.T) {
	m := NewMem()
	closer, err := m.Listen("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal("double close should be safe")
	}
	if _, err := m.Call(context.Background(), "a", wire.Message{Type: wire.TypeProbe}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("closed listener call err = %v", err)
	}
	// Address can be rebound.
	if _, err := m.Listen("a", echoHandler); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestMemCancelledContext(t *testing.T) {
	m := NewMem()
	if _, err := m.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Call(ctx, "a", wire.Message{Type: wire.TypeProbe}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call err = %v", err)
	}
}

func TestMemConcurrentCalls(t *testing.T) {
	m := NewMem()
	var served sync.Map
	for i := 0; i < 8; i++ {
		addr := fmt.Sprintf("n%d", i)
		if _, err := m.Listen(addr, func(ctx context.Context, req wire.Message) (wire.Message, error) {
			served.Store(addr, true)
			return wire.Message{Type: wire.TypeProbeResult}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := m.Call(context.Background(), fmt.Sprintf("n%d", i), wire.Message{Type: wire.TypeProbe}); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tr := &TCP{DialTimeout: time.Second, IOTimeout: 2 * time.Second}
	closer, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	tl, ok := closer.(*PooledListener)
	if !ok {
		t.Fatalf("listener type %T", closer)
	}
	req, err := wire.New(wire.TypeProbe, wire.TableInfo{Name: "tcp-test"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Call(context.Background(), tl.Addr(), req)
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
	if ti.Name != "tcp-test" {
		t.Errorf("payload round trip = %+v", ti)
	}
}

func TestTCPUnreachable(t *testing.T) {
	tr := &TCP{DialTimeout: 200 * time.Millisecond}
	// A port that is almost surely closed on loopback.
	_, err := tr.Call(context.Background(), "127.0.0.1:1", wire.Message{Type: wire.TypeProbe})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	tr := &TCP{}
	closer, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req wire.Message) (wire.Message, error) {
		return wire.Message{}, errors.New("handler exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(*PooledListener).Addr()
	_, err = tr.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe})
	if err == nil || errors.Is(err, ErrUnreachable) {
		t.Errorf("remote error surfaced as %v", err)
	}
}

func TestTCPCloseStopsServing(t *testing.T) {
	tr := &TCP{DialTimeout: 200 * time.Millisecond}
	closer, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(*PooledListener).Addr()
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal("double close should be safe")
	}
	if _, err := tr.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call after close err = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	tr := &TCP{}
	closer, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(*PooledListener).Addr()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkMemCall(b *testing.B) {
	m := NewMem()
	if _, err := m.Listen("a", echoHandler); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	msg := wire.Message{Type: wire.TypeProbe}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call(ctx, "a", msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPCall contrasts the two dialers of the supported matrix —
// one-shot dial-per-call and the pooled, multiplexed client — at 1 and
// 64 concurrent callers against the shared listener. scripts/check.sh
// smoke-runs it, records the numbers in BENCH_transport.json and gates
// pooled/c64's allocations there.
func BenchmarkTCPCall(b *testing.B) {
	closer, err := NewPooledTCP(PoolConfig{}).Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(*PooledListener).Addr()

	bench := func(tr Transport, callers int) func(*testing.B) {
		return func(b *testing.B) {
			ctx := context.Background()
			msg := wire.Message{Type: wire.TypeProbe}
			var wg sync.WaitGroup
			per := b.N / callers
			extra := b.N % callers
			b.ResetTimer()
			for w := 0; w < callers; w++ {
				n := per
				if w < extra {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := tr.Call(ctx, addr, msg); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		}
	}

	dial := &TCP{}
	pooled := NewPooledTCP(PoolConfig{})
	defer pooled.Close()

	b.Run("dial/c1", bench(dial, 1))
	b.Run("dial/c64", bench(dial, 64))
	b.Run("pooled/c1", bench(pooled, 1))
	b.Run("pooled/c64", bench(pooled, 64))
}

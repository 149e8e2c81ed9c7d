package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// Deadline propagation and typed-error round trips across both framings
// are covered by TestDialerMatrix; the tests here pin the edges.

// deadlineProbe is a handler that records the remaining budget its
// context carried on entry.
type deadlineProbe struct {
	mu        sync.Mutex
	remaining []time.Duration
}

func (p *deadlineProbe) handler(ctx context.Context, req wire.Message) (wire.Message, error) {
	var rem time.Duration
	if d, ok := ctx.Deadline(); ok {
		rem = time.Until(d)
	}
	p.mu.Lock()
	p.remaining = append(p.remaining, rem)
	p.mu.Unlock()
	return wire.Message{Type: wire.TypeProbeResult}, nil
}

func (p *deadlineProbe) last(t *testing.T) time.Duration {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.remaining) == 0 {
		t.Fatal("handler never ran")
	}
	return p.remaining[len(p.remaining)-1]
}

// checkBudget asserts the handler-side remaining budget reflects the
// client's deadline (well under the transport's own IO timeout) rather
// than the IO timeout default.
func checkBudget(t *testing.T, rem, clientBudget time.Duration) {
	t.Helper()
	if rem <= 0 {
		t.Fatal("handler context carried no deadline")
	}
	if rem > clientBudget {
		t.Errorf("handler budget %v exceeds the client's %v — deadline not propagated", rem, clientBudget)
	}
	if rem < clientBudget/4 {
		t.Errorf("handler budget %v is far below the client's %v — budget mangled in transit", rem, clientBudget)
	}
}

// TestDeadlineNotStampedWithoutOne checks a context without a deadline
// leaves the envelope's DL field zero, so the server falls back to its
// own IO timeout.
func TestDeadlineNotStampedWithoutOne(t *testing.T) {
	probe := &deadlineProbe{}
	p, addr := poolPair(t, PoolConfig{IOTimeout: 3 * time.Second}, probe.handler)
	if _, err := p.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe}); err != nil {
		t.Fatal(err)
	}
	rem := probe.last(t)
	// The handler still runs under the listener's IO timeout.
	if rem <= 0 || rem > 3*time.Second {
		t.Errorf("handler budget without client deadline = %v, want (0, 3s]", rem)
	}
	if rem < 2*time.Second {
		t.Errorf("handler budget %v suggests a phantom propagated deadline", rem)
	}
}

// TestServerShedsExpiredBudget checks the server side refuses to start a
// handler whose propagated budget is already spent: the handler context
// arrives pre-expired and typed work can notice before doing anything.
func TestServerShedsExpiredBudget(t *testing.T) {
	ran := make(chan time.Duration, 1)
	p, addr := poolPair(t, PoolConfig{IOTimeout: 30 * time.Second}, func(ctx context.Context, req wire.Message) (wire.Message, error) {
		if err := ctx.Err(); err != nil {
			return wire.Message{}, err
		}
		var rem time.Duration
		if d, ok := ctx.Deadline(); ok {
			rem = time.Until(d)
		}
		ran <- rem
		return wire.Message{Type: wire.TypeProbeResult}, nil
	})
	// A request stamped with the minimum 1ms budget: by the time the
	// server derives the handler context and schedules the handler, the
	// budget is gone (or nearly so) — either the handler observes an
	// expired context, or it sees at most the tiny stamped budget. What
	// must NOT happen is the handler running under the 30s IO timeout.
	req := wire.Message{Type: wire.TypeProbe, DL: 1}
	_, err := p.Call(context.Background(), addr, req)
	select {
	case rem := <-ran:
		if rem > 5*time.Millisecond {
			t.Errorf("handler budget = %v for a 1ms stamped request", rem)
		}
	default:
		if err == nil {
			t.Error("handler shed but the call still succeeded")
		}
	}
}

package transport

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

func TestStackCanonicalOrder(t *testing.T) {
	mem := NewMem()
	st, err := NewStack(WithBase(mem), WithAddr("mem://self"), WithFaults(NewFaultPlan(1)),
		WithRetry(RetryPolicy{MaxAttempts: 2}), WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ls := Layers(st)
	want := []string{"*transport.Stacked", "*transport.Retrier", "*transport.Faulty", "*transport.Instrumented", "*transport.Mem"}
	if len(ls) != len(want) {
		t.Fatalf("chain depth = %d, want %d", len(ls), len(want))
	}
	for i, l := range ls {
		if got := typeName(l); got != want[i] {
			t.Errorf("layer %d = %s, want %s", i, got, want[i])
		}
	}
	if Unwrap(st) != Transport(mem) {
		t.Error("Unwrap did not reach the base transport")
	}
	if st.Base() != Transport(mem) {
		t.Error("Base() is not the supplied transport")
	}
}

func typeName(t Transport) string {
	switch t.(type) {
	case *Stacked:
		return "*transport.Stacked"
	case *Retrier:
		return "*transport.Retrier"
	case *Faulty:
		return "*transport.Faulty"
	case *Instrumented:
		return "*transport.Instrumented"
	case *Mem:
		return "*transport.Mem"
	case *PooledTCP:
		return "*transport.PooledTCP"
	default:
		return "?"
	}
}

// TestStackSkipsAbsentLayers: the chain is exactly as thick as asked for.
func TestStackSkipsAbsentLayers(t *testing.T) {
	mem := NewMem()
	st, err := NewStack(WithBase(mem))
	if err != nil {
		t.Fatal(err)
	}
	ls := Layers(st)
	// Stacked → base: no registry means Instrument passes through.
	if len(ls) != 2 {
		t.Fatalf("bare chain depth = %d, want 2 (Stacked, Mem)", len(ls))
	}
	if Unwrap(st) != Transport(mem) {
		t.Error("Unwrap did not reach the base")
	}
}

func TestStackDefaultBaseIsPooled(t *testing.T) {
	st, err := NewStack(WithPool(PoolConfig{MaxConnsPerPeer: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := Unwrap(st).(*PooledTCP); !ok {
		t.Errorf("default base = %T, want *PooledTCP", Unwrap(st))
	}
}

func TestStackFaultsRequireAddr(t *testing.T) {
	if _, err := NewStack(WithBase(NewMem()), WithFaults(NewFaultPlan(1))); err == nil {
		t.Error("faults without Addr accepted")
	}
}

// TestStackCloseDrainsPooledBase: Close on the stack reaches through the
// decorators to the pooled base.
func TestStackCloseDrainsPooledBase(t *testing.T) {
	st, err := NewStack(WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	p := Unwrap(st).(*PooledTCP)
	_, err = p.Call(context.Background(), "127.0.0.1:1", wire.Message{Type: wire.TypeProbe})
	if err == nil {
		t.Error("pooled base still accepts calls after stack Close")
	}
}

// TestStackEndToEnd exercises a full chain (retry over faults over
// instrumentation over Mem) against a flaky peer: the retry layer must
// absorb the injected loss.
func TestStackEndToEnd(t *testing.T) {
	mem := NewMem()
	if _, err := mem.Listen("mem://peer", echoHandler); err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(7)
	plan.SetAddrRule("mem://peer", Rule{DropRequest: 0.3})
	reg := obs.NewRegistry()
	st, err := NewStack(WithBase(mem), WithAddr("mem://self"), WithFaults(plan),
		WithRetry(RetryPolicy{
			MaxAttempts: 5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Seed:        7,
		}),
		WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ok := 0
	for i := 0; i < 50; i++ {
		if _, err := st.Call(ctx, "mem://peer", wire.Message{Type: wire.TypeProbe}); err == nil {
			ok++
		}
	}
	// 30% loss with 5 attempts: failures should be rare (p ≈ 0.3^5).
	if ok < 45 {
		t.Errorf("only %d/50 calls survived retried fault injection", ok)
	}
	if reg.Counter("hours_retry_attempts_total", obs.L("type", string(wire.TypeProbe))).Value() == 0 {
		t.Error("retry layer recorded no extra attempts despite injected loss")
	}
}

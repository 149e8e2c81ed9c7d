package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// collectWriter records every flush it receives and the frame stream.
type collectWriter struct {
	mu      sync.Mutex
	flushes [][]byte
}

func (w *collectWriter) write(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushes = append(w.flushes, append([]byte(nil), b...))
	return nil
}

func (w *collectWriter) stream() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	var all []byte
	for _, f := range w.flushes {
		all = append(all, f...)
	}
	return all
}

// TestCoalescerRoundTrip proves coalesced frames decode identically to
// frames written one Write per frame, whatever the flush boundaries.
func TestCoalescerRoundTrip(t *testing.T) {
	msgs := make([]Message, 50)
	for i := range msgs {
		m, err := New(TypeQuery, Query{Target: fmt.Sprintf("t%d.example", i), TTL: i})
		if err != nil {
			t.Fatal(err)
		}
		m.From = fmt.Sprintf("client-%d", i%5)
		if i%3 == 0 {
			m.DL = int64(100 + i)
		}
		msgs[i] = m
	}

	var direct bytes.Buffer
	for i, m := range msgs {
		if err := writeMuxFrame(&direct, FrameRequest, uint64(i+1), m); err != nil {
			t.Fatal(err)
		}
	}

	w := &collectWriter{}
	co := NewCoalescer(CoalescerConfig{Write: w.write})
	go co.Run()
	for i, m := range msgs {
		if err := co.WriteMuxFrame(FrameRequest, uint64(i+1), m); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if got, want := w.stream(), direct.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("coalesced stream (%d bytes) differs from direct stream (%d bytes)", len(got), len(want))
	}
	// And the decoded sequence matches.
	r := bytes.NewReader(w.stream())
	var scratch []byte
	for i, want := range msgs {
		var kind FrameKind
		var id uint64
		var got Message
		var err error
		kind, id, got, scratch, err = ReadMuxFrame(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != FrameRequest || id != uint64(i+1) {
			t.Fatalf("frame %d: kind=%v id=%d", i, kind, id)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) ||
			got.From != want.From || got.DL != want.DL {
			t.Fatalf("frame %d decoded %+v, want %+v", i, got, want)
		}
	}
	if _, _, _, err := readMuxFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing bytes after last frame: %v", err)
	}
}

// TestCoalescerBatchesUnderLoad checks that concurrent writers end up
// with fewer flushes than frames (natural batching), with every frame
// accounted for.
func TestCoalescerBatchesUnderLoad(t *testing.T) {
	w := &collectWriter{}
	var flushedFrames, flushes int
	var statsMu sync.Mutex
	co := NewCoalescer(CoalescerConfig{
		Write:     w.write,
		MaxLinger: 200 * time.Microsecond,
		Inflight:  func() int { return 32 }, // pretend heavy load
		OnFlush: func(frames, bytes int, linger time.Duration) {
			statsMu.Lock()
			flushedFrames += frames
			flushes++
			statsMu.Unlock()
		},
	})
	go co.Run()
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m, _ := New(TypeProbe, nil)
				if err := co.WriteMuxFrame(FrameRequest, uint64(g*per+i+1), m); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	statsMu.Lock()
	defer statsMu.Unlock()
	if flushedFrames != writers*per {
		t.Fatalf("flushed %d frames, want %d", flushedFrames, writers*per)
	}
	if flushes >= writers*per {
		t.Fatalf("no batching: %d flushes for %d frames", flushes, writers*per)
	}
	// The stream still decodes frame by frame.
	r := bytes.NewReader(w.stream())
	seen := 0
	for {
		_, _, _, err := readMuxFrame(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if seen != writers*per {
		t.Fatalf("decoded %d frames, want %d", seen, writers*per)
	}
}

// TestCoalescerMaxBytesFlush checks the size bound forces a flush even
// while a long linger is pending.
func TestCoalescerMaxBytesFlush(t *testing.T) {
	w := &collectWriter{}
	co := NewCoalescer(CoalescerConfig{
		Write:     w.write,
		MaxBytes:  256,
		MaxLinger: time.Second, // absurd linger: only the size bound can flush fast
		Inflight:  func() int { return 64 },
	})
	go co.Run()
	defer co.Close()
	big, err := New(TypeQuery, Query{Target: string(make([]byte, 200))})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := co.WriteMuxFrame(FrameRequest, uint64(i+1), big); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		n := len(w.flushes)
		w.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("size-bound flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("flush waited out the linger (%v) despite the size bound", waited)
	}
}

// TestCoalescerWriteFailure checks a failed flush surfaces on OnError
// and on later writes, and that Close does not hang.
func TestCoalescerWriteFailure(t *testing.T) {
	boom := errors.New("boom")
	errCh := make(chan error, 1)
	co := NewCoalescer(CoalescerConfig{
		Write:   func([]byte) error { return boom },
		OnError: func(err error) { errCh <- err },
	})
	go co.Run()
	m, _ := New(TypeProbe, nil)
	if err := co.WriteMuxFrame(FrameRequest, 1, m); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, boom) {
			t.Fatalf("OnError got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnError never fired")
	}
	// Subsequent writes report the failure.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := co.WriteMuxFrame(FrameRequest, 2, m); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("write after failure: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write kept succeeding after flush failure")
		}
	}
	if err := co.Close(); !errors.Is(err, boom) {
		t.Fatalf("close: %v", err)
	}
}

// TestCoalescerIdleNoLinger checks an idle pipe flushes without waiting:
// one frame with inflight 1 must not sit for MaxLinger.
func TestCoalescerIdleNoLinger(t *testing.T) {
	w := &collectWriter{}
	co := NewCoalescer(CoalescerConfig{
		Write:     w.write,
		MaxLinger: 500 * time.Millisecond,
		Inflight:  func() int { return 1 },
	})
	go co.Run()
	defer co.Close()
	m, _ := New(TypeProbe, nil)
	start := time.Now()
	if err := co.WriteMuxFrame(FrameRequest, 1, m); err != nil {
		t.Fatal(err)
	}
	for {
		w.mu.Lock()
		n := len(w.flushes)
		w.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Since(start) > 250*time.Millisecond {
			t.Fatal("idle flush lingered")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

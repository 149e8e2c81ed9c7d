package wire

// Adaptive frame batching (write coalescing).
//
// Upper-level HOURS nodes absorb the aggregate query fan-in of the whole
// hierarchy, so per-frame syscall overhead on the wire path directly
// caps how much legitimate traffic survives an attack. The Coalescer
// amortizes it: concurrent writers append encoded mux frames to a shared
// pending buffer and a single flusher hands the whole run to the kernel
// in one write — group commit for frames. Batching is adaptive on two
// axes:
//
//   - naturally: while one flush's write syscall is in progress, later
//     frames pile into the pending buffer and ship together on the next
//     flush, so batch size grows with offered load at zero added latency;
//   - by linger: when the connection has many exchanges in flight, the
//     flusher waits a short, bounded linger (0 when the pipe is idle,
//     scaling with the in-flight count up to MaxLinger) before flushing,
//     trading microseconds of latency for fuller batches exactly when
//     load is high enough to repay it.
//
// Frames are appended atomically under the coalescer's lock, so a flush
// always carries a whole number of frames and the peer's decoder sees a
// byte stream identical to unbatched writes (pinned by FuzzCoalescer).

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrCoalescerClosed is returned by writes on a closed coalescer whose
// writer had not failed; the frame was never buffered.
var ErrCoalescerClosed = errors.New("wire: coalescer closed")

// CoalescerConfig parameterizes NewCoalescer. Write is required;
// everything else has usable defaults.
type CoalescerConfig struct {
	// Write flushes one batch of whole frames in a single call. It runs
	// on the flusher goroutine only, so implementations may set write
	// deadlines without synchronizing with the enqueuing writers.
	Write func([]byte) error
	// MaxBytes triggers an immediate flush (cutting any linger short)
	// once the pending buffer reaches this size; default 64 KiB.
	MaxBytes int
	// MaxLinger bounds the adaptive linger; default 250µs. Zero disables
	// lingering entirely (natural batching still applies).
	MaxLinger time.Duration
	// LingerFullAt is the in-flight count at which the linger reaches
	// MaxLinger (default 16): linger = MaxLinger × min(inflight,
	// LingerFullAt) / LingerFullAt, and 0 when at most one exchange is in
	// flight — an idle pipe never waits.
	LingerFullAt int
	// Inflight reports the connection's current in-flight exchange count,
	// sampled once per flush cycle to drive the linger. Nil disables
	// lingering.
	Inflight func() int
	// OnFlush, when non-nil, observes every completed flush (frame count,
	// batch bytes, linger applied) — the hook behind hours_batch_*.
	OnFlush func(frames, bytes int, linger time.Duration)
	// OnError, when non-nil, fires once when a flush fails. It runs on
	// the flusher goroutine; implementations must not call Close (which
	// waits for that goroutine) — fail the connection instead, which is
	// what the transport's hook does.
	OnError func(error)
}

// withDefaults fills zero fields.
func (c CoalescerConfig) withDefaults() CoalescerConfig {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 10
	}
	if c.LingerFullAt <= 0 {
		c.LingerFullAt = 16
	}
	return c
}

// Coalescer packs concurrently written mux frames into batched flushes.
// Create with NewCoalescer, start the flusher with Run (usually on a
// tracked goroutine), enqueue with WriteMuxFrame, and stop with Close.
type Coalescer struct {
	cfg CoalescerConfig

	mu     sync.Mutex
	cond   *sync.Cond
	pend   []byte
	frames int
	spare  []byte // recycled batch buffer, swapped with pend at flush
	closed bool
	failed error

	kick chan struct{} // cuts a linger short (size bound hit / closing)
	done chan struct{} // closed when the flusher exits
}

// NewCoalescer returns a coalescer over cfg.Write. The caller must run
// the flusher (Run) before frames flush.
func NewCoalescer(cfg CoalescerConfig) *Coalescer {
	c := &Coalescer{
		cfg:  cfg.withDefaults(),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// WriteMuxFrame encodes one frame into the pending batch. It returns
// immediately after buffering; delivery happens on the flusher. A write
// on a failed coalescer returns the flush error (the frame cannot have
// been sent), a write on a closed one ErrCoalescerClosed.
func (c *Coalescer) WriteMuxFrame(kind FrameKind, id uint64, m Message) error {
	c.mu.Lock()
	if err := c.failed; err != nil {
		c.mu.Unlock()
		return err
	}
	if c.closed {
		c.mu.Unlock()
		return ErrCoalescerClosed
	}
	var err error
	c.pend, err = AppendMuxFrame(c.pend, kind, id, m)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.frames++
	over := len(c.pend) >= c.cfg.MaxBytes
	c.mu.Unlock()
	c.cond.Signal()
	if over {
		c.kickFlush()
	}
	return nil
}

// kickFlush cuts a pending linger short (non-blocking).
func (c *Coalescer) kickFlush() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// linger computes the adaptive wait before the next flush: nothing on an
// idle pipe, up to MaxLinger when many exchanges are in flight.
func (c *Coalescer) linger() time.Duration {
	if c.cfg.MaxLinger <= 0 || c.cfg.Inflight == nil {
		return 0
	}
	infl := c.cfg.Inflight()
	if infl <= 1 {
		return 0
	}
	if infl >= c.cfg.LingerFullAt {
		return c.cfg.MaxLinger
	}
	return c.cfg.MaxLinger * time.Duration(infl) / time.Duration(c.cfg.LingerFullAt)
}

// Run is the flusher loop: it waits for pending frames, lingers while
// the batch is worth growing, and hands each batch to cfg.Write in one
// call. It returns when Close is called (after flushing what remains) or
// when a flush fails (after reporting via OnError). Run must be called
// exactly once.
func (c *Coalescer) Run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for c.frames == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.frames == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		closing := c.closed
		under := len(c.pend) < c.cfg.MaxBytes
		c.mu.Unlock()

		var lingered time.Duration
		if !closing && under {
			if lingered = c.linger(); lingered > 0 {
				t := time.NewTimer(lingered)
				select {
				case <-t.C:
				case <-c.kick:
					t.Stop()
				}
			}
		}

		c.mu.Lock()
		buf, frames := c.pend, c.frames
		c.pend, c.frames = c.spare[:0], 0
		c.spare = nil
		c.mu.Unlock()

		err := c.cfg.Write(buf)
		if c.cfg.OnFlush != nil {
			c.cfg.OnFlush(frames, len(buf), lingered)
		}
		if err != nil {
			c.mu.Lock()
			c.failed = fmt.Errorf("wire: coalesced flush: %w", err)
			c.mu.Unlock()
			if c.cfg.OnError != nil {
				c.cfg.OnError(err)
			}
			return
		}
		if cap(buf) <= pooledBufMax {
			c.mu.Lock()
			c.spare = buf[:0]
			c.mu.Unlock()
		}
	}
}

// Close stops the coalescer: pending frames are flushed (unless a flush
// already failed), the flusher exits, and Close waits for it. It returns
// the flush error if the coalescer failed. Close is idempotent; it must
// not be called from OnFlush/OnError (they run on the flusher it awaits)
// — use Shutdown there.
func (c *Coalescer) Close() error {
	c.Shutdown()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// Shutdown asynchronously stops the coalescer without waiting for the
// flusher to exit: safe from any goroutine, including failure paths
// invoked under the connection's own teardown.
func (c *Coalescer) Shutdown() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	c.kickFlush()
}

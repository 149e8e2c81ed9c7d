package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// rawMuxServer is a hand-rolled mux peer written against the byte layout
// rather than the wire helpers: it acks a preface by echoing it and
// answers every request frame with a response frame carrying the
// request's own body. misbehave runs first on every accepted connection
// (numbered from 1); returning true means it dealt with the connection
// and the server must not serve it.
func rawMuxServer(t *testing.T, misbehave func(n int, c net.Conn) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int, c net.Conn) {
				defer c.Close()
				if misbehave(n, c) {
					return
				}
				var hello [5]byte
				if _, err := io.ReadFull(c, hello[:]); err != nil {
					return
				}
				if _, err := c.Write(hello[:]); err != nil {
					return
				}
				for {
					var hdr [13]byte // [flags|kind:1][id:8][len:4]
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					body := make([]byte, binary.BigEndian.Uint32(hdr[9:13]))
					if _, err := io.ReadFull(c, body); err != nil {
						return
					}
					hdr[0] = byte(wire.FrameResponse)
					if _, err := c.Write(append(hdr[:], body...)); err != nil {
						return
					}
				}
			}(int(accepted.Add(1)), conn)
		}
	}()
	return ln.Addr().String()
}

// TestFailedHandshakeIsNotRemembered is the regression test for the
// sticky downgrade ladders: a peer whose first two handshakes fail —
// the connection closes, or the ack stalls past IOTimeout, as under
// overload — must cost exactly those two calls. Nothing is remembered
// about the address: the third call dials the mux again and succeeds,
// the fourth reuses that connection. (The ladders took the two refusals
// as "older build", pinned the address to one-shot dial-per-call framing
// for the life of the process, and never dialed the mux again.)
func TestFailedHandshakeIsNotRemembered(t *testing.T) {
	const ioTimeout = 150 * time.Millisecond
	for name, refuse := range map[string]func(net.Conn){
		"closes": func(net.Conn) {},
		"stalls": func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }, // reads, never acks
	} {
		t.Run(name, func(t *testing.T) {
			addr := rawMuxServer(t, func(n int, c net.Conn) bool {
				if n > 2 {
					return false
				}
				refuse(c)
				return true
			})
			reg := obs.NewRegistry()
			p := NewPooledTCP(PoolConfig{IOTimeout: ioTimeout})
			p.SetMetrics(reg)
			defer p.Close()
			ctx := context.Background()
			probe := wire.Message{Type: wire.TypeProbe}

			for call := 1; call <= 2; call++ {
				if _, err := p.Call(ctx, addr, probe); !errors.Is(err, ErrUnreachable) {
					t.Fatalf("call %d against a refused handshake: err = %v, want ErrUnreachable", call, err)
				}
			}
			for call := 3; call <= 4; call++ {
				resp, err := p.Call(ctx, addr, probe)
				if err != nil {
					t.Fatalf("call %d once the peer behaves: %v", call, err)
				}
				if resp.Type != wire.TypeProbe {
					t.Errorf("call %d: echoed type = %q", call, resp.Type)
				}
			}
			if got := reg.Counter("hours_pool_dials_total").Value(); got != 3 {
				t.Errorf("dials = %d, want 3 (two refused, one kept)", got)
			}
			if got := reg.Counter("hours_pool_conn_reuse_total").Value(); got < 1 {
				t.Errorf("conn reuse = %d, want >= 1 (call 4 must ride call 3's connection)", got)
			}
			if got := reg.Gauge("hours_pool_conns_open").Value(); got != 1 {
				t.Errorf("conns open = %d, want 1", got)
			}
		})
	}
}

// TestHandshakeVersionMismatch pins the version check on both sides of
// the preface: a dialer whose peer acks another version fails the call
// with ErrUnreachable naming the version, and the listener closes a
// connection that offers another version without acking it.
func TestHandshakeVersionMismatch(t *testing.T) {
	t.Run("dialer rejects the ack", func(t *testing.T) {
		addr := rawMuxServer(t, func(_ int, c net.Conn) bool {
			var hello [5]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				return true
			}
			hello[4] = wire.MuxVersion + 1
			_, _ = c.Write(hello[:])
			_, _ = io.Copy(io.Discard, c) // hold the conn: the dialer must hang up
			return true
		})
		p := NewPooledTCP(PoolConfig{IOTimeout: 2 * time.Second})
		defer p.Close()
		_, err := p.Call(context.Background(), addr, wire.Message{Type: wire.TypeProbe})
		want := fmt.Sprintf("wire: unsupported mux version %d", wire.MuxVersion+1)
		if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want ErrUnreachable wrapping %q", err, want)
		}
	})

	t.Run("listener does not ack the preface", func(t *testing.T) {
		_, addr := poolPair(t, PoolConfig{IOTimeout: 2 * time.Second}, echoHandler)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var hello [5]byte
		binary.BigEndian.PutUint32(hello[:4], wire.MuxMagic)
		hello[4] = wire.MuxVersion - 1 // a stale build
		if _, err := conn.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := conn.Read(hello[:]); err != io.EOF {
			t.Fatalf("read after a stale preface = %d bytes, %v; want the connection closed unacked", n, err)
		}
	})
}

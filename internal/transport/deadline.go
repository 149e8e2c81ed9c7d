package transport

// Wire-level deadline propagation and typed-error mapping, shared by the
// one-shot and pooled/multiplexed socket transports.
//
// The caller's remaining context budget is stamped onto the request
// envelope (Message.DL, milliseconds) just before it hits the socket;
// the serving side folds it into the handler context so every downstream
// hop inherits a shrinking budget and sheds work whose deadline already
// expired instead of computing dead answers. The in-process Mem
// transport needs none of this: its context crosses the "wire" natively.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// stampDeadline copies the context's remaining budget onto the request
// envelope. A budget that already ran out is stamped as 1ms rather than
// omitted — the serving side then sheds it instead of treating it as
// unbounded.
func stampDeadline(ctx context.Context, req wire.Message) wire.Message {
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DL = ms
	}
	return req
}

// handlerContext derives the context a server-side handler runs under:
// the listener's base context bounded by the smaller of the transport IO
// timeout and the request's propagated deadline budget.
func handlerContext(base context.Context, ioTimeout time.Duration, dlMillis int64) (context.Context, context.CancelFunc) {
	d := ioTimeout
	if dlMillis > 0 {
		if budget := time.Duration(dlMillis) * time.Millisecond; budget < d {
			d = budget
		}
	}
	return context.WithTimeout(base, d)
}

// errorMessage encodes a handler failure as a wire error response,
// preserving typed admission rejections (code + retry-after hint) so the
// caller can reconstruct them.
func errorMessage(err error) wire.Message {
	e := &wire.Error{Reason: err.Error()}
	var oe *OverloadedError
	if errors.As(err, &oe) {
		e.Code = wire.ErrCodeOverloaded
		e.RetryAfterMillis = oe.RetryAfter.Milliseconds()
	}
	// Typed: the serving connection's codec encodes it — binary on the
	// hot shed path, where overload responses are exactly the traffic
	// that must stay cheap.
	return wire.Typed(wire.TypeError, e)
}

// finishCall completes a client-side exchange: an error response comes
// back as the typed error it encodes, anything else as the response.
func finishCall(addr string, resp wire.Message) (wire.Message, error) {
	if resp.Type != wire.TypeError {
		return resp, nil
	}
	var e wire.Error
	if err := resp.Decode(&e); err != nil {
		return wire.Message{}, fmt.Errorf("call %s: undecodable error response: %w", addr, err)
	}
	return wire.Message{}, remoteError(addr, e)
}

// remoteError reconstructs a typed error from a decoded wire error
// response, so errors.Is/As classification works across the socket the
// same way it does in-process.
func remoteError(addr string, e wire.Error) error {
	if e.Code == wire.ErrCodeOverloaded {
		return fmt.Errorf("call %s: %w", addr,
			&OverloadedError{RetryAfter: time.Duration(e.RetryAfterMillis) * time.Millisecond})
	}
	return fmt.Errorf("call %s: remote error: %s", addr, e.Reason)
}

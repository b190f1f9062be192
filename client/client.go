// Package client is THEDB's Go network client: a connection-pooled,
// pipelined stored-procedure caller that cooperates with the server's
// load shedding.
//
// Calls are procedure invocations — Call("PayBill", thedb.Int(7)) —
// multiplexed over a small pool of TCP connections. Each connection
// pipelines up to the server-advertised in-flight window and matches
// responses to requests by id, so responses may return out of order
// and a slow transaction never blocks the wire behind it.
//
// When the server sheds (wire.CodeShed) or drains
// (wire.CodeDraining), the error carries a backoff hint; Call retries with jittered exponential
// backoff floored at that hint, up to Options.RetryAttempts. All
// other errors — user aborts, unknown procedures, protocol faults —
// return immediately.
//
// # Exactly-once retries
//
// A connection can die after a call was sent but before its response
// arrived — the ambiguous window where the transaction may or may not
// have committed. The client closes it with the protocol's session
// machinery: every Call gets a client-wide monotonic sequence number,
// and a re-send of the same (session, seq) — over the same connection
// pool or a fresh one after redial — is answered from the server's
// per-session dedup window instead of executing twice. Retries across
// connection failures are therefore transparent and safe, including
// for non-idempotent procedures.
//
// The guarantee ends at a server restart: the dedup window dies with
// the process, which the client detects through the incarnation token
// in the handshake. A call that was sent, lost its connection, and
// cannot be safely retried surfaces as a MaybeCommittedError (matched
// by errors.Is(err, ErrMaybeCommitted)): the caller must reconcile —
// typically by reading back the affected keys under a fresh sequence
// number.
//
// A context deadline travels with each call as a budget; the server
// refuses to execute once the budget is dead, so a caller that has
// given up never commits work it will not observe.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/storage"
	"thedb/internal/wire"
)

// Options tunes a Client. The zero value gets sensible defaults.
type Options struct {
	// Conns is the connection-pool size (default 1). Calls round-robin
	// across the pool.
	Conns int

	// RetryAttempts is the number of retries after a retryable server
	// error before giving up (default 8). Zero keeps the default; use
	// -1 to disable retries.
	RetryAttempts int
}

func (o *Options) fill() {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.RetryAttempts == 0 {
		o.RetryAttempts = 8
	}
	if o.RetryAttempts < 0 {
		o.RetryAttempts = 0
	}
}

// Fixed client parameters.
const (
	// maxFrame bounds the response-frame payloads this client accepts.
	maxFrame = wire.DefaultMaxFrame
	// dialTimeout bounds connection establishment, handshake included.
	dialTimeout = 5 * time.Second
	// retryBase and retryMax shape the jittered exponential backoff
	// between retries. The server's hint acts as a floor for each sleep.
	retryBase = 500 * time.Microsecond
	retryMax  = 100 * time.Millisecond
	// clientName identifies this client in the handshake.
	clientName = "thedb-go"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: closed")

// ErrNoSession is returned by a dial whose WELCOME grants no
// exactly-once session or names no server incarnation. A THEDB server
// binds a session on every connection, and every sent call records the
// incarnation that holds it, so such a peer is not a server this client
// can call safely; the socket is closed.
var ErrNoSession = errors.New("client: server granted no exactly-once session")

// ErrMaybeCommitted marks an ambiguous outcome: the call was sent, no
// response arrived, and the exactly-once machinery could not settle it
// (server restart, or the caller's context died).
// Match with errors.Is; the concrete error is a *MaybeCommittedError
// carrying the cause.
var ErrMaybeCommitted = errors.New("client: call may have committed")

// MaybeCommittedError reports a call whose transaction may or may not
// have committed on the server. It is never returned when the server
// answered (even with an error) or when the call was provably not
// executed; the caller must reconcile by reading back the keys the
// call would have written.
type MaybeCommittedError struct {
	// Cause is the failure that created the ambiguity (connection
	// loss, context death, retry exhaustion).
	Cause error
}

// Error formats the ambiguity with its cause.
func (e *MaybeCommittedError) Error() string {
	return fmt.Sprintf("client: call may have committed (outcome unknown): %v", e.Cause)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *MaybeCommittedError) Unwrap() error { return e.Cause }

// Is matches the ErrMaybeCommitted sentinel.
func (e *MaybeCommittedError) Is(target error) bool { return target == ErrMaybeCommitted }

// Result is one committed transaction's named outputs.
type Result struct {
	outs []wire.Output
}

// Names lists the output variables in sorted order.
func (r *Result) Names() []string {
	names := make([]string, len(r.outs))
	for i, o := range r.outs {
		names[i] = o.Name
	}
	sort.Strings(names)
	return names
}

func (r *Result) find(name string) (wire.Output, bool) {
	for _, o := range r.outs {
		if o.Name == name {
			return o, true
		}
	}
	return wire.Output{}, false
}

// Has reports whether the transaction produced output name.
func (r *Result) Has(name string) bool {
	_, ok := r.find(name)
	return ok
}

// Val returns the scalar output name, or Null if absent.
func (r *Result) Val(name string) storage.Value {
	o, ok := r.find(name)
	if !ok || len(o.Vals) == 0 {
		return storage.Null
	}
	return o.Vals[0]
}

// Vals returns the list output name (range-read results), or nil.
func (r *Result) Vals(name string) []storage.Value {
	o, ok := r.find(name)
	if !ok {
		return nil
	}
	return o.Vals
}

// Invocation names one procedure call for CallBatch.
type Invocation struct {
	Proc string
	Args []storage.Value
}

// Reply pairs one batched invocation's outcome.
type Reply struct {
	Result *Result
	Err    error
}

// Client is a pooled, pipelined connection to one THEDB server. It is
// safe for concurrent use.
type Client struct {
	addr string
	opts Options

	next atomic.Uint64

	// session is the exactly-once token bound by the first handshake
	// and presented on every subsequent dial, so all pooled (and
	// re-dialed) connections share one dedup window. seq numbers the
	// client's calls within that session.
	session atomic.Uint64
	seq     atomic.Uint64

	mu     sync.Mutex
	pool   []*clientConn
	closed bool
}

// Dial connects to a THEDB server. Connections are established
// lazily; Dial itself opens one to validate the address and protocol
// version.
func Dial(addr string, opts Options) (*Client, error) {
	opts.fill()
	c := &Client{addr: addr, opts: opts, pool: make([]*clientConn, opts.Conns)}
	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.pool[0] = cc
	return c, nil
}

// Close releases every pooled connection. In-flight calls fail with a
// connection error.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	for i, cc := range c.pool {
		if cc == nil {
			continue
		}
		if err := cc.close(ErrClosed); err != nil {
			errs = append(errs, err)
		}
		c.pool[i] = nil
	}
	return errors.Join(errs...)
}

// Call invokes a stored procedure and waits for its outputs, retrying
// shed/draining responses and connection failures with
// jittered backoff. A nil error means the transaction committed on
// the server exactly once; a MaybeCommittedError means the outcome is
// unknown and the caller must reconcile.
func (c *Client) Call(ctx context.Context, procName string, args ...storage.Value) (*Result, error) {
	return c.callSeq(ctx, c.seq.Add(1), 0, procName, args, false)
}

// CallSnapshot invokes a stored procedure as a read-only snapshot
// transaction: the server executes it against an epoch-consistent
// snapshot with zero validation (DESIGN.md §4.6), so long analytical
// reads neither abort nor slow concurrent writers. The call is
// idempotent by construction — it opts out of the exactly-once dedup
// window and is retried freely, never surfacing MaybeCommittedError. A
// procedure that attempts a write fails with a server-reported abort.
func (c *Client) CallSnapshot(ctx context.Context, procName string, args ...storage.Value) (*Result, error) {
	return c.callSeq(ctx, 0, 0, procName, args, true)
}

// callSeq drives one logical call — one sequence number — through as
// many attempts as the retry budget allows. sentInc carries ambiguity
// in from a batch path whose frame already reached the wire (0 when
// nothing was sent yet): it records the incarnation of the server
// holding the unanswered attempt, and the call stays transparently
// retryable only while reconnects land on that same incarnation, whose
// dedup window guarantees the retry cannot double-apply.
func (c *Client) callSeq(ctx context.Context, seq, sentInc uint64, procName string, args []storage.Value, readOnly bool) (*Result, error) {
	var lastErr error
	maybe := func(err error) error {
		if sentInc != 0 {
			return &MaybeCommittedError{Cause: err}
		}
		return err
	}
	for attempt := 0; attempt <= c.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, lastErr); err != nil {
				return nil, maybe(err)
			}
		}
		cc, err := c.conn()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, maybe(err)
			}
			// Dial failure: the server may be mid-restart. Keep
			// retrying; the incarnation check below settles ambiguity
			// once a connection lands.
			lastErr = err
			continue
		}
		if sentInc != 0 && cc.welcome.Incarnation != sentInc {
			// An attempt is unanswered and the server that held its
			// dedup entry is gone (restart = new incarnation). A
			// re-send could double-apply; surface the ambiguity.
			return nil, &MaybeCommittedError{Cause: lastErr}
		}
		res, sent, err := cc.call(ctx, seq, procName, args, readOnly)
		if err == nil {
			return res, nil
		}
		lastErr = err
		var re *wire.RemoteError
		if errors.As(err, &re) {
			// A retryable rejection proves only that this attempt did
			// not execute: the server sheds before it looks at the dedup
			// window, so an earlier unanswered attempt may still have
			// committed. sentInc therefore stays set — a retry is safe
			// only under the incarnation that holds it.
			if re.Retryable() {
				continue
			}
			return nil, err
		}
		// No answer for this attempt. If the frame may have reached
		// the wire, the call is ambiguous from here on — transparently
		// retryable only under this incarnation's dedup window. A
		// read-only snapshot call has no ambiguity to track:
		// re-executing it is always safe.
		if sent && !readOnly {
			sentInc = cc.welcome.Incarnation
		}
		if ctx.Err() != nil {
			return nil, maybe(ctx.Err())
		}
	}
	return nil, maybe(fmt.Errorf("client: %d retries exhausted: %w", c.opts.RetryAttempts, lastErr))
}

// CallBatch pipelines a batch of invocations over one connection —
// one write per window, one wake when the window's last response has
// arrived (in any order). Retryable failures within the batch are
// retried individually via Call. The returned slice matches calls by
// index.
func (c *Client) CallBatch(ctx context.Context, calls []Invocation) []Reply {
	replies := make([]Reply, len(calls))
	if len(calls) == 0 {
		return replies
	}
	// Each invocation gets its sequence number up front, so a batched
	// call retried individually below re-sends under the same seq and
	// stays exactly-once.
	atts := make([]attempt, len(calls))
	for i := range atts {
		atts[i].seq = c.seq.Add(1)
	}
	cc, err := c.conn()
	if err != nil {
		for i := range replies {
			replies[i].Err = err
		}
		return replies
	}
	// Window the batch by the server's in-flight bound so pipelining
	// never trips the shed policy by construction.
	window := len(cc.slots)
	for lo := 0; lo < len(calls); lo += window {
		hi := min(lo+window, len(calls))
		cc.sendWindow(ctx, calls[lo:hi], atts[lo:hi], false)
	}
	// Individually retry what can be retried safely: retryable server
	// rejections (provably not executed) and connection failures,
	// whose sent frames the dedup window guards against double apply.
	for i := range replies {
		a := &atts[i]
		if a.err == nil {
			replies[i].Result = &a.res
			continue
		}
		replies[i].Err = a.err
		var re *wire.RemoteError
		switch {
		case errors.As(a.err, &re):
			if !re.Retryable() {
				continue // settled outcome
			}
			a.sentInc = 0 // rejection: the seq did not execute
		case ctx.Err() != nil:
			if a.sentInc != 0 {
				replies[i].Err = &MaybeCommittedError{Cause: a.err}
			} else {
				// Never written, and no time left to write it: only the
				// caller's clock ran out, whatever stopped the window.
				replies[i].Err = fmt.Errorf("%w before the call was sent (%v)", ctx.Err(), a.err)
			}
			continue
		}
		replies[i].Result, replies[i].Err = c.callSeq(ctx, a.seq, a.sentInc, calls[i].Proc, calls[i].Args, false)
	}
	return replies
}

// backoff sleeps before retry attempt n: jittered exponential from
// retryBase, capped at retryMax, floored at the server's hint.
func (c *Client) backoff(ctx context.Context, attempt int, cause error) error {
	var hint time.Duration
	var re *wire.RemoteError
	if errors.As(cause, &re) {
		hint = re.Backoff
	}
	d := retryDelay(retryBase, retryMax, hint, attempt, rand.Int63n)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryDelay computes the sleep before retry attempt n (1-based):
// exponential from base, capped at max (with the left shift guarded
// against overflow for large attempt counts), jittered uniformly into
// [d/2, d], then floored at the server's backoff hint. jitter is the
// random source — rand.Int63n in production, deterministic in tests.
func retryDelay(base, max, hint time.Duration, attempt int, jitter func(int64) int64) time.Duration {
	d := base
	if shift := attempt - 1; shift > 0 {
		if shift >= 63 {
			d = max
		} else if d <<= shift; d <= 0 || d > max {
			d = max
		}
	}
	if d > max {
		d = max
	}
	// Full jitter: uniform in [d/2, d].
	d = d/2 + time.Duration(jitter(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	return d
}

// conn picks the next pooled connection, dialing or replacing broken
// ones lazily.
func (c *Client) conn() (*clientConn, error) {
	idx := int(c.next.Add(1)) % c.opts.Conns
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc := c.pool[idx]
	if cc != nil && !cc.broken() {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	// Dial outside the lock; only one winner installs.
	fresh, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cerr := fresh.close(ErrClosed)
		_ = cerr // racing Close already tears the pool down
		return nil, ErrClosed
	}
	if cur := c.pool[idx]; cur != nil && !cur.broken() {
		cerr := fresh.close(ErrClosed)
		_ = cerr // lost the install race; the surviving conn is cur
		return cur, nil
	}
	c.pool[idx] = fresh
	return fresh, nil
}

// clientConn is one TCP connection: a write buffer guarded by wmu and
// a reader goroutine that delivers responses to waiting calls by
// request id.
//
// A call in flight occupies one slot of a fixed table sized by the
// handshake's MaxInFlight; its request id is the slot's index with the
// slot's generation above it. The stack of free slots is the in-flight
// window: a slot is taken in sendWindow and freed the moment its
// response reaches the read loop (or the call is abandoned) — NOT when
// the caller collects the result. Freeing on arrival matters:
// concurrent batches issue whole windows before collecting, so slots
// held until collection would deadlock once enough batches share a
// connection. Hence an outcome lands in memory the caller owns, through
// the slot's pointer, never in the slot.
type clientConn struct {
	nc net.Conn
	fr *wire.Reader // the connection's one reader: handshake, then readLoop

	welcome wire.Welcome
	done    chan struct{} // closed when the connection fails; unblocks issuers waiting for a slot

	wmu  sync.Mutex // guards wbuf and serializes socket writes
	wbuf []byte     // calls encoded in place, awaiting a flush

	mu    sync.Mutex
	slots []slot
	free  []uint32 // free[:nfree] index the unoccupied slots
	nfree int
	space chan struct{} // non-nil while an issuer waits for a slot; closed by the next release
	err   error         // set once the connection is unusable

	// traceBase salts the per-call trace IDs: each attempt carries
	// wire.MintTraceID(traceBase + request id), unique across connections
	// and retries so server-side traces, recorder events and exemplars
	// correlate end to end.
	traceBase uint64
}

// maxWindow caps a connection's slots, whatever MaxInFlight a peer
// advertises: the table is sized from the WELCOME, and a server sheds
// above its own bound, so using fewer slots than it allows is safe.
const maxWindow = 4096

// slot is one in-flight call. gen is bumped on every release, so the
// late response to an abandoned call carries a generation the slot has
// left behind and is dropped, never handed to the slot's next occupant.
type slot struct {
	gen uint32
	att *attempt // where the outcome lands; nil while the slot is free
	w   *waiter
}

// attempt is one call's state on a connection: its pre-assigned
// sequence number going in; coming out, its outcome (res is handed to
// the caller when err is nil) and, once its frame may have reached the
// wire (a failed write can still have delivered it), the incarnation of
// the server it was sent to — never 0, which handshake refuses.
type attempt struct {
	res     Result
	err     error
	seq     uint64
	sentInc uint64 // 0 while the frame is provably unsent
}

// waiter is what one window of calls blocks on: n (guarded by
// clientConn.mu) counts the outcomes still owed, plus the issuer's own
// hold while it is issuing; whoever takes it to zero sends the one wake.
type waiter struct {
	ch chan struct{}
	n  int
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

func (c *Client) dialConn() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{
		nc:        nc,
		fr:        wire.NewReader(nc, maxFrame),
		done:      make(chan struct{}),
		traceBase: rand.Uint64(),
	}
	if err := cc.handshake(c.session.Load()); err != nil {
		cerr := nc.Close()
		_ = cerr // handshake failure already reported; socket is dead
		return nil, err
	}
	// The first successful handshake mints the client's session; every
	// later dial presented it, and the server echoed the same token.
	c.session.CompareAndSwap(0, cc.welcome.Session)
	go cc.readLoop()
	return cc, nil
}

// handshake sends hello (presenting the client's session token, 0 to
// mint) and waits for the server's welcome (or a version error),
// synchronously, before the reader starts. A welcome without a session
// or an incarnation is refused with ErrNoSession.
func (cc *clientConn) handshake(session uint64) error {
	if err := cc.nc.SetDeadline(time.Now().Add(dialTimeout)); err != nil {
		return fmt.Errorf("client: handshake deadline: %w", err)
	}
	buf := wire.AppendHello(nil, wire.Hello{Client: clientName, Session: session})
	if _, err := cc.nc.Write(buf); err != nil {
		return fmt.Errorf("client: sending hello: %w", err)
	}
	f, err := cc.fr.Next()
	if err != nil {
		return fmt.Errorf("client: reading welcome: %w", err)
	}
	switch f.Op {
	case wire.OpWelcome:
	case wire.OpError:
		re, derr := wire.DecodeError(f.Payload)
		if derr != nil {
			return fmt.Errorf("client: malformed handshake error: %w", derr)
		}
		return &re
	default:
		return fmt.Errorf("client: unexpected %s during handshake", wire.OpName(f.Op))
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		return fmt.Errorf("client: malformed welcome: %w", err)
	}
	if w.Session == 0 || w.Incarnation == 0 {
		return fmt.Errorf("%w (server %q)", ErrNoSession, w.Server)
	}
	if err := cc.nc.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("client: clearing deadline: %w", err)
	}
	cc.welcome = w
	window := min(max(int(w.MaxInFlight), 1), maxWindow)
	cc.slots = make([]slot, window)
	cc.free = make([]uint32, window)
	for i := range cc.slots {
		cc.slots[i].gen = 1 // request id 0 belongs to the handshake
		cc.free[i] = uint32(i)
	}
	cc.nfree = window
	return nil
}

// call runs one attempt of a sequenced call on this connection. sent
// (may the frame have reached the wire?) separates "provably never
// executed" from "ambiguous" when err is a connection failure.
func (cc *clientConn) call(ctx context.Context, seq uint64, procName string, args []storage.Value, readOnly bool) (*Result, bool, error) {
	inv := [1]Invocation{{Proc: procName, Args: args}}
	att := []attempt{{seq: seq}}
	cc.sendWindow(ctx, inv[:], att, readOnly)
	if err := att[0].err; err != nil {
		return nil, att[0].sentInc != 0, err
	}
	return &att[0].res, true, nil
}

// sendWindow pipelines one window of calls and blocks once, until
// every atts[i] has its outcome: each call takes a slot and is encoded
// straight into the write buffer, stamped with its sequence number and
// the context's remaining deadline as a microsecond budget; the buffer
// is written once; the read loop (or a connection failure) sends the
// one wake when the last outcome lands.
func (cc *clientConn) sendWindow(ctx context.Context, calls []Invocation, atts []attempt, readOnly bool) {
	w := waiterPool.Get().(*waiter)
	w.n = 1 // the issuer's hold: early responses cannot drain the count mid-issue
	var err error
	i := 0 // calls issued so far
	for i < len(calls) && err == nil {
		var budgetUS uint64
		if dl, ok := ctx.Deadline(); ok {
			rem := time.Until(dl)
			if rem <= 0 {
				err = context.DeadlineExceeded
				break
			}
			budgetUS = max(uint64(rem/time.Microsecond), 1)
		}
		var space chan struct{}
		cc.wmu.Lock()
		cc.mu.Lock()
		for ; i < len(calls) && cc.nfree > 0 && cc.err == nil; i++ {
			a := &atts[i]
			id := cc.occupy(a, w)
			cc.wbuf = wire.AppendCall(cc.wbuf, id, wire.Call{
				Proc: calls[i].Proc, Args: calls[i].Args, Seq: a.seq, BudgetUS: budgetUS,
				TraceID: wire.MintTraceID(cc.traceBase + id), ReadOnly: readOnly,
			})
			a.sentInc = cc.welcome.Incarnation
		}
		if err = cc.err; err == nil && i < len(calls) {
			if cc.space == nil {
				cc.space = make(chan struct{})
			}
			space = cc.space
		}
		cc.mu.Unlock()
		cc.wmu.Unlock()
		if space == nil {
			continue
		}
		// The window is full. Push any frames still in the write buffer
		// (ours or a sibling batch's) before blocking: a slot only frees
		// when the server answers, and it cannot answer frames it was
		// never sent — concurrent batches on one connection could fill
		// the window entirely with buffered frames and deadlock.
		if err = cc.flush(); err == nil {
			select {
			case <-space:
			case <-cc.done: // the next pass finds cc.err
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
	}
	ferr := cc.flush()
	_ = ferr // a failed flush closed the connection, settling every slot: the wait below still ends
	for ; i < len(atts); i++ {
		atts[i].err = err // never issued: no slot, nothing owed
	}
	cc.mu.Lock()
	w.n--
	owed := w.n > 0
	cc.mu.Unlock()
	if owed {
		select {
		case <-w.ch:
		case <-ctx.Done():
			cc.abandon(w, ctx.Err())
			return // not pooled: the wake may already be on its way
		}
	}
	waiterPool.Put(w)
}

// occupy pops a free slot for attempt a and returns its request id.
// Caller holds mu and has checked nfree.
//
//thedb:noalloc
func (cc *clientConn) occupy(a *attempt, w *waiter) uint64 {
	cc.nfree--
	i := cc.free[cc.nfree]
	s := &cc.slots[i]
	s.att, s.w = a, w
	w.n++
	return uint64(s.gen)<<32 | uint64(i)
}

// settle lands one outcome in slot i's attempt, frees the slot, and
// sends the window's wake if this was the last outcome owed. Caller
// holds mu.
//
//thedb:noalloc
func (cc *clientConn) settle(i uint32, outs []wire.Output, err error) {
	s := &cc.slots[i]
	s.att.res.outs, s.att.err = outs, err
	w := s.w
	cc.release(i)
	if w.n--; w.n == 0 {
		w.ch <- struct{}{} // capacity 1, one wake per window: never blocks
	}
}

// release frees slot i: the generation bump retires its request id,
// and an issuer waiting for a slot is let through. Caller holds mu.
//
//thedb:noalloc
func (cc *clientConn) release(i uint32) {
	s := &cc.slots[i]
	s.att, s.w = nil, nil
	s.gen++
	cc.free[cc.nfree] = i
	cc.nfree++
	if cc.space != nil {
		close(cc.space)
		cc.space = nil
	}
}

// flush writes the buffered calls to the wire.
func (cc *clientConn) flush() error {
	cc.wmu.Lock()
	var err error
	if len(cc.wbuf) > 0 {
		_, err = cc.nc.Write(cc.wbuf)
		cc.wbuf = wire.Recycle(cc.wbuf)
	}
	cc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("client: write: %w", err)
		cerr := cc.close(err)
		_ = cerr // the write error is the one worth reporting
	}
	return err
}

// abandon gives up on every call of w's window still in flight: each
// fails with cause and frees its slot.
func (cc *clientConn) abandon(w *waiter, cause error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for i := range cc.slots {
		if s := &cc.slots[i]; s.w == w {
			s.att.err = cause
			cc.release(uint32(i))
		}
	}
}

// broken reports whether the connection has failed.
func (cc *clientConn) broken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// close marks the connection failed with cause, fails every call in
// flight, unblocks issuers waiting for a slot, and closes the socket.
func (cc *clientConn) close(cause error) error {
	cc.mu.Lock()
	first := cc.err == nil
	if first {
		cc.err = cause
	}
	for i := range cc.slots {
		if cc.slots[i].att != nil {
			cc.settle(uint32(i), nil, cause)
		}
	}
	cc.mu.Unlock()
	if !first {
		return nil // socket already closed by the first closer
	}
	close(cc.done)
	return cc.nc.Close()
}

// readLoop delivers response frames to the slots their request ids
// name until the connection dies. The responses that arrived together
// — a pipelined window's usually do — are settled under one hold of mu.
func (cc *clientConn) readLoop() {
	for {
		f, err := cc.fr.Next()
		if err == nil {
			cc.mu.Lock()
			for {
				cc.deliver(f)
				if !cc.fr.Buffered() {
					break
				}
				if f, err = cc.fr.Next(); err != nil {
					break
				}
			}
			cc.mu.Unlock()
		}
		if err != nil {
			cerr := cc.close(fmt.Errorf("client: connection lost: %w", err))
			_ = cerr // close-after-error: the read error is authoritative
			return
		}
	}
}

// deliver decodes one response frame and settles the slot it names;
// nothing of the frame's payload is referenced afterwards. Caller
// holds mu.
func (cc *clientConn) deliver(f wire.Frame) {
	var outs []wire.Output
	var err error
	switch f.Op {
	case wire.OpResult:
		if outs, err = wire.DecodeResult(f.Payload); err != nil {
			err = fmt.Errorf("client: malformed result: %w", err)
		}
	case wire.OpError:
		if re, derr := wire.DecodeError(f.Payload); derr != nil {
			err = fmt.Errorf("client: malformed error frame: %w", derr)
		} else {
			err = &re
		}
	default:
		// Unknown frame for a live id is a protocol fault; for a
		// retired id it is dropped below like any late response.
		err = fmt.Errorf("client: unexpected %s frame", wire.OpName(f.Op))
	}
	// Settling frees the slot now, before anyone collects the result.
	// A generation the slot has left behind marks a late response.
	i, gen := uint32(f.ID), uint32(f.ID>>32)
	if int(i) < len(cc.slots) && cc.slots[i].gen == gen && cc.slots[i].att != nil {
		cc.settle(i, outs, err)
	}
}

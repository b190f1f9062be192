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
// When the server sheds (wire.CodeShed), reports engine contention
// (wire.CodeContended) or drains (wire.CodeDraining), the error
// carries a backoff hint; Call retries with jittered exponential
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
	"bufio"
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

	// MaxFrame bounds response-frame payloads this client will accept
	// (default wire.DefaultMaxFrame).
	MaxFrame int

	// DialTimeout bounds connection establishment including the
	// handshake (default 5s).
	DialTimeout time.Duration

	// RetryAttempts is the number of retries after a retryable server
	// error before giving up (default 8). Zero keeps the default; use
	// -1 to disable retries.
	RetryAttempts int

	// RetryBase and RetryMax shape the jittered exponential backoff
	// between retries (defaults 500µs and 100ms). The server's hint
	// acts as a floor for each sleep.
	RetryBase time.Duration
	RetryMax  time.Duration

	// Name identifies this client in the handshake (default
	// "thedb-go").
	Name string
}

func (o *Options) fill() {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryAttempts == 0 {
		o.RetryAttempts = 8
	}
	if o.RetryAttempts < 0 {
		o.RetryAttempts = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 500 * time.Microsecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 100 * time.Millisecond
	}
	if o.Name == "" {
		o.Name = "thedb-go"
	}
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: closed")

// ErrMaybeCommitted marks an ambiguous outcome: the call was sent, no
// response arrived, and the exactly-once machinery could not settle it
// (server restart, dedup disabled, or the caller's context died).
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
// shed/contended/draining responses and connection failures with
// jittered backoff. A nil error means the transaction committed on
// the server exactly once; a MaybeCommittedError means the outcome is
// unknown and the caller must reconcile.
func (c *Client) Call(ctx context.Context, procName string, args ...storage.Value) (*Result, error) {
	return c.callSeq(ctx, c.seq.Add(1), 0, procName, args, false)
}

// CallSnapshot invokes a stored procedure as a read-only snapshot
// transaction: the server executes it against an epoch-consistent
// snapshot with zero validation (DESIGN.md §15), so long analytical
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
		if sentInc != 0 && (cc.welcome.Session == 0 || cc.welcome.Incarnation != sentInc) {
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
			// not execute: the server sheds and drains before it looks
			// at the dedup window, so an earlier unanswered attempt may
			// still have committed. sentInc therefore stays set — a
			// retry is safe only under the incarnation that holds it.
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
			if cc.welcome.Session == 0 {
				return nil, &MaybeCommittedError{Cause: err}
			}
			sentInc = cc.welcome.Incarnation
		}
		if ctx.Err() != nil {
			return nil, maybe(ctx.Err())
		}
	}
	return nil, maybe(fmt.Errorf("client: %d retries exhausted: %w", c.opts.RetryAttempts, lastErr))
}

// CallBatch pipelines a batch of invocations over one connection —
// one write, one flush, responses collected as they complete (in any
// order). Retryable failures within the batch are retried
// individually via Call. The returned slice matches calls by index.
func (c *Client) CallBatch(ctx context.Context, calls []Invocation) []Reply {
	replies := make([]Reply, len(calls))
	if len(calls) == 0 {
		return replies
	}
	// Each invocation gets its sequence number up front, so a batched
	// call retried individually below re-sends under the same seq and
	// stays exactly-once.
	slots := make([]batchSlot, len(calls))
	for i := range slots {
		slots[i].seq = c.seq.Add(1)
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
	window := cap(cc.sem)
	for lo := 0; lo < len(calls); lo += window {
		hi := lo + window
		if hi > len(calls) {
			hi = len(calls)
		}
		cc.sendWindow(ctx, calls[lo:hi], replies[lo:hi], slots[lo:hi])
	}
	// Individually retry what can be retried safely: retryable server
	// rejections (provably not executed) and connection failures,
	// whose sent frames the dedup window guards against double apply.
	for i := range replies {
		err := replies[i].Err
		if err == nil {
			continue
		}
		var re *wire.RemoteError
		switch {
		case errors.As(err, &re):
			if !re.Retryable() {
				continue // settled outcome
			}
			slots[i].sentInc = 0 // rejection: the seq did not execute
		case ctx.Err() != nil:
			if slots[i].sentInc != 0 {
				replies[i].Err = &MaybeCommittedError{Cause: err}
			}
			continue
		case slots[i].sent && slots[i].sentInc == 0:
			// Sent without a dedup-capable session: no safe retry.
			replies[i].Err = &MaybeCommittedError{Cause: err}
			continue
		}
		replies[i].Result, replies[i].Err = c.callSeq(ctx, slots[i].seq, slots[i].sentInc, calls[i].Proc, calls[i].Args, false)
	}
	return replies
}

// backoff sleeps before retry attempt n: jittered exponential from
// RetryBase, capped at RetryMax, floored at the server's hint.
func (c *Client) backoff(ctx context.Context, attempt int, cause error) error {
	var hint time.Duration
	var re *wire.RemoteError
	if errors.As(cause, &re) {
		hint = re.Backoff
	}
	d := retryDelay(c.opts.RetryBase, c.opts.RetryMax, hint, attempt, rand.Int63n)
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

// clientConn is one TCP connection: a writer guarded by wmu and a
// reader goroutine that dispatches responses to waiting calls by
// request id.
//
// The in-flight window (sem) counts requests the server has not yet
// answered. A slot is acquired in issue and released the moment the
// response arrives at the read loop (or the request is abandoned) —
// NOT when the caller collects the result. Releasing on arrival
// matters: concurrent batches issue whole windows before collecting,
// so slots held until collection would deadlock once enough batches
// share a connection.
type clientConn struct {
	nc net.Conn
	bw *bufio.Writer

	welcome wire.Welcome
	sem     chan struct{} // unanswered-request window, sized from the handshake
	done    chan struct{} // closed when the connection fails; unblocks acquirers

	wmu sync.Mutex // serializes bw writes and flushes

	mu      sync.Mutex
	pending map[uint64]chan outcome
	err     error // set once the connection is unusable

	nextID atomic.Uint64

	// traceBase salts the per-call trace IDs minted by issue: each
	// attempt carries splitmix64(traceBase + request id), unique across
	// connections and retries so server-side traces, recorder events
	// and exemplars correlate end to end.
	traceBase uint64
}

type outcome struct {
	outs []wire.Output
	err  error
}

func (c *Client) dialConn() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{
		nc:        nc,
		bw:        bufio.NewWriterSize(nc, 64<<10),
		pending:   make(map[uint64]chan outcome),
		done:      make(chan struct{}),
		traceBase: rand.Uint64(),
	}
	if err := cc.handshake(c.opts, c.session.Load()); err != nil {
		cerr := nc.Close()
		_ = cerr // handshake failure already reported; socket is dead
		return nil, err
	}
	// The first successful handshake mints the client's session; every
	// later dial presented it, and the server echoed the same token.
	c.session.CompareAndSwap(0, cc.welcome.Session)
	go cc.readLoop(c.opts.MaxFrame)
	return cc, nil
}

// handshake sends hello (presenting the client's session token, 0 to
// mint) and waits for the server's welcome (or a version error),
// synchronously, before the reader starts.
func (cc *clientConn) handshake(opts Options, session uint64) error {
	if err := cc.nc.SetDeadline(time.Now().Add(opts.DialTimeout)); err != nil {
		return fmt.Errorf("client: handshake deadline: %w", err)
	}
	buf := wire.AppendHello(nil, wire.Hello{Client: opts.Name, Session: session})
	if _, err := cc.nc.Write(buf); err != nil {
		return fmt.Errorf("client: sending hello: %w", err)
	}
	fr := wire.NewReader(cc.nc, opts.MaxFrame)
	f, err := fr.Next()
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
	if err := cc.nc.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("client: clearing deadline: %w", err)
	}
	cc.welcome = w
	window := int(w.MaxInFlight)
	if window <= 0 {
		window = 1
	}
	cc.sem = make(chan struct{}, window)
	return nil
}

// call runs one attempt of a sequenced call on this connection. sent
// reports whether the frame may have reached the wire — the flag that
// separates "provably never executed" from "ambiguous" when err is a
// connection failure rather than a server answer.
func (cc *clientConn) call(ctx context.Context, seq uint64, procName string, args []storage.Value, readOnly bool) (*Result, bool, error) {
	ch, id, sent, err := cc.issue(ctx, seq, procName, args, true, readOnly)
	if err != nil {
		return nil, sent, err
	}
	res, err := cc.await(ctx, id, ch)
	return res, true, err
}

// issue reserves an in-flight slot, registers a waiter, and writes
// one call frame stamped with its sequence number and the context's
// remaining deadline as a microsecond budget; flush controls whether
// the buffer is pushed to the wire immediately (single calls) or left
// for a batch flush. sent=true means bytes may have reached the wire
// (a failed write can still have delivered the frame).
func (cc *clientConn) issue(ctx context.Context, seq uint64, procName string, args []storage.Value, flush, readOnly bool) (chan outcome, uint64, bool, error) {
	var budgetUS uint64
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, 0, false, ctx.Err()
		}
		if budgetUS = uint64(rem / time.Microsecond); budgetUS == 0 {
			budgetUS = 1
		}
	}
	select {
	case cc.sem <- struct{}{}:
	default:
		// The window is full. Push any frames still sitting in the
		// write buffer (ours or a sibling batch's) before blocking:
		// a slot only frees when the server answers, and it cannot
		// answer frames it has never been sent. Without this flush,
		// concurrent batches on one connection can fill the window
		// entirely with buffered frames and deadlock.
		if err := cc.flushCalls(); err != nil {
			return nil, 0, false, err
		}
		select {
		case cc.sem <- struct{}{}:
		case <-cc.done:
			return nil, 0, false, cc.failure()
		case <-ctx.Done():
			return nil, 0, false, ctx.Err()
		}
	}
	id := cc.nextID.Add(1)
	ch := make(chan outcome, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		<-cc.sem
		return nil, 0, false, err
	}
	cc.pending[id] = ch
	cc.mu.Unlock()

	buf := wire.AppendCall(nil, id, wire.Call{
		Proc: procName, Args: args, Seq: seq, BudgetUS: budgetUS,
		TraceID: mintTraceID(cc.traceBase + id), ReadOnly: readOnly,
	})
	cc.wmu.Lock()
	_, werr := cc.bw.Write(buf)
	if werr == nil && flush {
		werr = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	if werr != nil {
		cc.abandon(id)
		werr = fmt.Errorf("client: write: %w", werr)
		cerr := cc.close(werr)
		_ = cerr // the write error is the one worth reporting
		return nil, 0, true, werr
	}
	return ch, id, true, nil
}

// mintTraceID finalizes a trace ID from the connection salt plus the
// request id (splitmix64; | 1 keeps it nonzero, since zero means
// untraced on the wire).
func mintTraceID(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// flushCalls pushes buffered batch frames to the wire.
func (cc *clientConn) flushCalls() error {
	cc.wmu.Lock()
	err := cc.bw.Flush()
	cc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("client: flush: %w", err)
		cerr := cc.close(err)
		_ = cerr // the flush error is the one worth reporting
	}
	return err
}

// await blocks until the response for id arrives or ctx ends. The
// in-flight slot was already released when the response reached the
// read loop (or by abandon here).
func (cc *clientConn) await(ctx context.Context, id uint64, ch chan outcome) (*Result, error) {
	select {
	case out := <-ch:
		if out.err != nil {
			return nil, out.err
		}
		return &Result{outs: out.outs}, nil
	case <-ctx.Done():
		cc.abandon(id)
		return nil, ctx.Err()
	}
}

// batchSlot carries one batched invocation's exactly-once state: its
// pre-assigned sequence number and, after sendWindow, whether its
// frame may have reached the wire and under which server incarnation.
type batchSlot struct {
	seq     uint64
	sent    bool
	sentInc uint64 // incarnation if sent with a dedup-capable session
}

// sendWindow pipelines one window of batch calls: issue all (buffered),
// one flush, then collect. slots[i] records each call's sent state for
// the exactly-once retry pass in CallBatch.
func (cc *clientConn) sendWindow(ctx context.Context, calls []Invocation, replies []Reply, slots []batchSlot) {
	type pend struct {
		ch chan outcome
		id uint64
	}
	pends := make([]pend, len(calls))
	issued := 0
	for i, inv := range calls {
		ch, id, sent, err := cc.issue(ctx, slots[i].seq, inv.Proc, inv.Args, false, false)
		slots[i].sent = sent
		if sent && cc.welcome.Session != 0 {
			slots[i].sentInc = cc.welcome.Incarnation
		}
		if err != nil {
			replies[i].Err = err
			continue
		}
		pends[i] = pend{ch: ch, id: id}
		issued++
	}
	if issued > 0 {
		if err := cc.flushCalls(); err != nil {
			// close already failed every pending waiter; fall through
			// so collection below reports the connection error.
			_ = err
		}
	}
	for i := range calls {
		if pends[i].ch == nil {
			continue
		}
		replies[i].Result, replies[i].Err = cc.await(ctx, pends[i].id, pends[i].ch)
	}
}

// abandon forgets a request whose caller stopped waiting and releases
// its slot; a late response is dropped by the reader.
func (cc *clientConn) abandon(id uint64) {
	cc.mu.Lock()
	_, had := cc.pending[id]
	delete(cc.pending, id)
	cc.mu.Unlock()
	if had {
		<-cc.sem
	}
}

// broken reports whether the connection has failed.
func (cc *clientConn) broken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// failure returns the error the connection failed with.
func (cc *clientConn) failure() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return errors.New("client: connection failed")
}

// close marks the connection failed with cause, fails every pending
// call, unblocks window waiters, and closes the socket.
func (cc *clientConn) close(cause error) error {
	cc.mu.Lock()
	first := cc.err == nil
	if first {
		cc.err = cause
	}
	pend := cc.pending
	cc.pending = make(map[uint64]chan outcome)
	cc.mu.Unlock()
	if first {
		close(cc.done)
	}
	for _, ch := range pend {
		ch <- outcome{err: cause}
	}
	if !first {
		return nil // socket already closed by the first closer
	}
	return cc.nc.Close()
}

// readLoop dispatches response frames to their waiters by request id
// until the connection dies.
func (cc *clientConn) readLoop(maxFrame int) {
	fr := wire.NewReader(cc.nc, maxFrame)
	for {
		f, err := fr.Next()
		if err != nil {
			cerr := cc.close(fmt.Errorf("client: connection lost: %w", err))
			_ = cerr // close-after-error: the read error is authoritative
			return
		}
		var out outcome
		switch f.Op {
		case wire.OpResult:
			outs, derr := wire.DecodeResult(f.Payload)
			if derr != nil {
				out.err = fmt.Errorf("client: malformed result: %w", derr)
			} else {
				out.outs = outs
			}
		case wire.OpError:
			re, derr := wire.DecodeError(f.Payload)
			if derr != nil {
				out.err = fmt.Errorf("client: malformed error frame: %w", derr)
			} else {
				out.err = &re
			}
		default:
			// Unknown frame for a known id is a protocol fault; for an
			// unknown id it is dropped below like any late response.
			out.err = fmt.Errorf("client: unexpected %s frame", wire.OpName(f.Op))
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.ID]
		delete(cc.pending, f.ID)
		cc.mu.Unlock()
		if ok {
			ch <- outcome{outs: out.outs, err: out.err}
			// The request is answered: free its window slot now so
			// batches still issuing can proceed before anyone
			// collects this result. Abandoned requests released
			// their slot in abandon (the pending entry was gone).
			<-cc.sem
		}
	}
}

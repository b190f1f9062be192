// Package server is THEDB's network serving plane: a net.Listener
// based RPC server that dispatches the engine's stored-procedure
// catalog to remote clients over the wire protocol.
//
// The design exploits the engine's transaction model: because every
// transaction is a one-shot stored procedure whose dependency graph
// is known up front (healing paper §3), a request frame carries
// everything the engine needs and the server never holds a client
// round-trip inside the critical section. Each engine session is
// owned by exactly one dispatch goroutine; connections feed a bounded
// global work queue and collect responses out of order by request id.
// The unit of that queue is the run — a contiguous share of one burst of
// pipelined calls — so what the server pays to schedule and account for
// work, it pays per burst and per run, not per call (conn.admit).
//
// The serving path carries a call in reused memory: it is decoded into
// one of its connection's fixed slots (conn), and its response is
// encoded once, from the transaction's variables into the dispatcher's
// scratch, then copied into the session's dedup ring (session.go) and
// onto the connection's outbound byte queue (outQueue), which a writer
// goroutine — woken once per burst — swaps and writes.
//
// Admission control is load shedding, not queueing: a request beyond
// the per-connection or global in-flight bound is answered immediately
// with a typed retryable error carrying a backoff hint (wire.CodeShed),
// so overload degrades into client-side backoff instead of unbounded
// server-side memory growth.
//
// Shutdown drains: stop accepting, answer new calls with
// wire.CodeDraining, finish every admitted transaction, flush every
// response, then close the database — which seals the final epoch and
// syncs the WAL — before returning.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"thedb"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/wire"
)

// Config is New's parameter. It has no field: every serving limit is
// one of the constants below. The type stays so callers that pass
// Config{} keep compiling; the benchmark harness is one of them.
type Config struct{}

// Fixed serving-plane parameters.
const (
	// maxFrame bounds accepted request-frame payloads. Advertised to
	// clients in the handshake.
	maxFrame = wire.DefaultMaxFrame
	// perConnInFlight bounds admitted-but-unanswered requests per
	// connection: a connection's slot table. Advertised in the
	// handshake; requests beyond it are shed.
	perConnInFlight = 64
	// globalInFlightPerWorker × workers bounds admitted requests across
	// all connections, counted from admission until the run a request
	// was dispatched in has been answered: requests beyond it are shed,
	// never queued unboundedly.
	globalInFlightPerWorker = 128
	// dedupWindow bounds each session's cache of completed responses,
	// which answers retried calls without re-executing them. Advertised
	// to clients in the handshake.
	dedupWindow = 256
	// writeTimeout bounds each network write: a client that stops
	// reading is disconnected rather than wedging a dispatch goroutine.
	writeTimeout = 10 * time.Second
	// handshakeTimeout bounds the wait for the client's hello.
	handshakeTimeout = 5 * time.Second
	// shedHint and drainHint are the backoff hints attached to the
	// two retryable error codes. Clients treat them as a floor for
	// their own jittered backoff.
	shedHint  = time.Millisecond
	drainHint = 10 * time.Millisecond
	// maxSessions caps the session registry. At the cap, an idle
	// session — no bound connections, nothing executing — is evicted to
	// make room for a new one.
	maxSessions = 1024
	// banner names the server in the handshake.
	banner = "thedb"
)

// request is one slot of a connection's in-flight table: a procedure
// invocation from the frame that carried it to the response that
// answers it, reused — argument vector included — by the next one.
type request struct {
	c  *conn
	id uint64

	// call is the decoded CALL, Proc interned. Seq 0 opts out of dedup;
	// ReadOnly is dispatched via Session.RunSnapshot and never deduped.
	call wire.Call

	// Exactly-once plumbing: the entry in its connection's session when
	// this request owns the execution of its seq, and what the window
	// said of it at admission.
	entry   *dedupEntry
	verdict dedupVerdict

	// next links the calls of one run, in arrival order.
	next *request

	// arrival, the burst's one clock reading, anchors the deadline
	// budget: the call is refused once arrival+budget passes without the
	// transaction having run.
	arrival time.Time

	// trace is the call's end-to-end trace ID: the client's when it
	// sent one, otherwise minted at admission when tracing is on
	// (0 = tracing off).
	trace uint64
}

// budget is the caller's deadline budget at send time (0 = none).
func (r *request) budget() time.Duration {
	return time.Duration(r.call.BudgetUS) * time.Microsecond
}

// Server serves a database's stored-procedure catalog over the wire
// protocol.
type Server struct {
	db    *thedb.DB
	stats *metrics.Server

	// work carries runs: each element heads a list of calls from one
	// connection (request.next) that one dispatcher answers in order. Its
	// capacity is the global bound, which pending enforces at admission,
	// so a read loop's send never blocks.
	work chan *request
	quit chan struct{}

	// pending counts admitted requests whose run is unfinished, and is
	// what the global bound (cap(work)) limits. It is an atomic
	// counter rather than a WaitGroup because admission races drain:
	// admit increments then re-checks the draining flag, Shutdown sets
	// the flag then reads the counter, and seq-cst atomics guarantee
	// one side sees the other (Dekker) — whereas WaitGroup.Add from a
	// zero counter concurrent with Wait is documented misuse. finish
	// pokes drainSig when the count returns to zero while draining.
	pending  atomic.Int64
	drainSig chan struct{}

	connWG sync.WaitGroup // connection reader/writer goroutines

	mu        sync.Mutex
	conns     map[*conn]struct{}
	listeners map[net.Listener]struct{}

	// incarnation identifies this server boot in the handshake; a
	// client that re-sends an unanswered call and sees a different
	// incarnation knows its dedup window is gone and must surface the
	// ambiguity instead of retrying transparently.
	incarnation uint64
	sessions    registry

	// tracer is the database's trace ring (nil when tracing is off);
	// traceCtr feeds admission-minted trace IDs for untraced callers.
	tracer   *obs.Tracer
	traceCtr atomic.Uint64

	draining    atomic.Bool
	dispatchers sync.Once
	quitOnce    sync.Once
}

// New builds a server over db. The database must have its tables
// created, procedures registered and Start called before Serve;
// Shutdown closes it (sealing the epoch and syncing the WAL).
func New(db *thedb.DB, _ Config) *Server {
	return &Server{
		db:          db,
		stats:       &metrics.Server{},
		work:        make(chan *request, globalInFlightPerWorker*db.Workers()),
		quit:        make(chan struct{}),
		drainSig:    make(chan struct{}, 1),
		conns:       map[*conn]struct{}{},
		listeners:   map[net.Listener]struct{}{},
		incarnation: uint64(time.Now().UnixNano()),
		sessions:    registry{m: map[uint64]*session{}},
		tracer:      db.Tracer(),
	}
}

// Stats returns the serving plane's counters (live; read with
// Snapshot).
func (s *Server) Stats() *metrics.Server { return s.stats }

// ListenAndServe listens on addr ("host:port"; ":0" picks a free
// port) and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// Serve accepts connections on l until Shutdown (or a listener
// error). It blocks; run it in a goroutine to serve several
// listeners. A nil return means the listener was closed by Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.startDispatchers()
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		lerr := l.Close()
		_ = lerr // the listener never served; nothing durable rides on it
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.startConn(nc)
	}
}

// startDispatchers launches one dispatch goroutine per engine
// session: session i is driven only by goroutine i, satisfying the
// one-goroutine-per-session contract.
func (s *Server) startDispatchers() {
	s.dispatchers.Do(func() {
		for i := 0; i < s.db.Workers(); i++ {
			go s.dispatch(&dispatcher{sess: s.db.Session(i)})
		}
	})
}

// dispatcher is one dispatch goroutine's engine session and scratch.
type dispatcher struct {
	sess  *thedb.Session
	frame []byte // the response frame under construction
}

// dispatch serves queued runs on one engine session until quit.
func (s *Server) dispatch(d *dispatcher) {
	serve := func(req *request) { s.serveOne(d, req) }
	for {
		select {
		case <-s.quit:
			return
		case head := <-s.work:
			s.serveRun(head, serve)
		}
	}
}

// serveRun answers every call of the run head leads, each as soon as it
// is done — the connection's outQueue already coalesces the wake and
// the write, and a slow transaction must not hold back the answers of
// the calls before it — then gives the run's accounting back at once.
func (s *Server) serveRun(head *request, serve func(*request)) {
	c, n := head.c, 0
	for req := head; req != nil; n++ {
		next := req.next // the response frees the slot
		serve(req)
		req = next
	}
	s.finish(c, n)
}

// serveOne runs one admitted request to completion and queues its
// response frame. A request whose deadline budget expired while queued
// is refused without executing: the caller's context is already dead,
// so running the transaction would burn engine time on an answer
// nobody reads.
func (s *Server) serveOne(d *dispatcher, req *request) {
	if b := req.budget(); b > 0 && time.Since(req.arrival) >= b {
		s.stats.DeadlineRejected.Add(1)
		d.frame = wire.AppendError(d.frame[:0], req.id, wire.RemoteError{
			Code: wire.CodeDeadline, Msg: "deadline budget exhausted before execution",
		})
		s.respond(req, d.frame, false)
		return
	}
	// Hand the wire trace context to the engine session: queue wait is
	// everything between admission and this dispatch slot.
	traced := s.tracer != nil
	if traced {
		d.sess.SetTraceContext(req.trace, time.Since(req.arrival).Microseconds(), req.arrival.UnixNano())
	}
	var env *thedb.Env
	var err error
	if req.call.ReadOnly {
		env, err = d.sess.RunSnapshot(req.call.Proc, req.call.Args...)
	} else {
		env, err = d.sess.Run(req.call.Proc, req.call.Args...)
	}
	var respStart time.Time
	if traced {
		respStart = time.Now()
	}
	if err != nil {
		re := s.mapError(err)
		d.frame = wire.AppendError(d.frame[:0], req.id, re)
		// Cache only settled outcomes. A retryable rejection (shed,
		// draining) must re-execute on retry, not replay
		// the rejection from the window.
		s.respond(req, d.frame, !re.Retryable())
	} else {
		d.frame = appendResult(d.frame[:0], req.id, env)
		s.respond(req, d.frame, true)
	}
	if traced {
		// Amend the retained trace (if tail sampling kept it) with the
		// response-write cost, outbound backpressure included.
		slot, id := d.sess.LastTrace()
		s.tracer.AmendResp(slot, id, time.Since(respStart).Microseconds())
	}
}

// appendResult encodes a committed transaction's outputs as one RESULT
// frame, straight from its slots in the Program's output order: every
// variable an operation wrote, in name order, and no argument — the
// caller has those.
func appendResult(dst []byte, id uint64, env *thedb.Env) []byte {
	names, vars := env.Outputs()
	n := 0
	for i := range vars {
		if vars[i].Set {
			n++
		}
	}
	start := len(dst)
	dst = wire.BeginFrame(dst, wire.OpResult, id)
	dst = wire.AppendOutputCount(dst, n)
	for i := range vars {
		switch v := &vars[i]; {
		case !v.Set:
		case v.IsList:
			dst = wire.AppendList(dst, names[i], v.List)
		default:
			dst = wire.AppendScalar(dst, names[i], v.V)
		}
	}
	return wire.EndFrame(dst, start)
}

// respond answers an admitted request, and any retries parked on its
// dedup entry, with one encoded frame, freeing each one's slot. cache
// controls whether the frame joins the session's dedup window for
// future retries. Every completion path for a request that may own a
// dedup entry must come through here — answering around it would strand
// parked waiters — and the caller gives req's accounting back with
// finish (a parked retry's goes back here). frame is the caller's
// scratch: copied wherever it goes, re-addressed in place per recipient.
func (s *Server) respond(req *request, frame []byte, cache bool) {
	if req.entry != nil {
		for _, w := range req.c.sess.complete(s, req.entry, frame, cache) {
			wc := w.c
			wire.SetID(frame, w.id)
			wc.out.put(frame, w)
			s.finish(wc, 1)
		}
		wire.SetID(frame, req.id)
	}
	req.c.out.put(frame, req)
}

// finish gives back the accounting of n of c's admitted requests, after
// their responses (or rejections) have been queued.
func (s *Server) finish(c *conn, n int) {
	s.stats.InFlight.Add(int64(-n))
	c.reqs.Add(-n)
	if s.pending.Add(int64(-n)) == 0 && s.draining.Load() {
		select {
		case s.drainSig <- struct{}{}:
		default: // a wakeup is already queued
		}
	}
}

// mapError classifies an engine failure into a wire error. Every
// retryable condition carries a backoff hint; nothing is dropped
// silently. What a snapshot transaction refuses (thedb.ErrReadOnlyTxn,
// thedb.ErrSnapshotSecondaryScan) is a settled CodeInternal error that
// carries the engine's message.
func (s *Server) mapError(err error) wire.RemoteError {
	if errors.Is(err, thedb.ErrNoSuchProc) {
		return wire.RemoteError{Code: wire.CodeUnknownProc, Msg: err.Error()}
	}
	var abort *proc.AbortError
	if errors.As(err, &abort) {
		return wire.RemoteError{Code: wire.CodeAbort, Msg: abort.Reason}
	}
	return wire.RemoteError{Code: wire.CodeInternal, Msg: err.Error()}
}

// Shutdown drains the server: stop accepting, reject new calls with
// the draining error, finish every admitted transaction and flush its
// response, then close the database — sealing the final commit epoch
// and syncing every WAL stream to stable storage. ctx bounds the
// wait for in-flight transactions; on expiry remaining queued work is
// answered with draining errors and connections are closed forcibly,
// but the database is still closed cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	var errs []error
	s.draining.Store(true)

	s.mu.Lock()
	for l := range s.listeners {
		if err := l.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: closing listener: %w", err))
		}
		delete(s.listeners, l)
	}
	s.mu.Unlock()

	// Wait for admitted transactions (ctx-bounded). finish pokes
	// drainSig whenever the pending count returns to zero while
	// draining, so a non-zero read here always has a wakeup coming.
waiting:
	for s.pending.Load() != 0 {
		select {
		case <-s.drainSig:
		case <-ctx.Done():
			errs = append(errs, fmt.Errorf("server: shutdown: %w while draining in-flight requests", ctx.Err()))
			break waiting
		}
	}

	// Stop the dispatchers, then answer the runs left in the queue
	// (only non-empty when ctx expired) with draining errors so no
	// request vanishes silently and the per-connection accounting
	// still balances.
	s.quitOnce.Do(func() { close(s.quit) })
	refuse := func(req *request) {
		s.stats.DrainRejected.Add(1)
		s.respond(req, wire.AppendError(nil, req.id, wire.RemoteError{
			Code: wire.CodeDraining, Backoff: drainHint, Msg: "server draining",
		}), false)
	}
	for queued := true; queued; {
		select {
		case head := <-s.work:
			s.serveRun(head, refuse)
		default:
			queued = false
		}
	}

	// Wake every connection's read loop; teardown then flushes
	// pending responses and closes the socket.
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.wake()
	}

	connsDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(connsDone)
	}()
	select {
	case <-connsDone:
	case <-ctx.Done():
		// Force: kill the sockets; writers error out and drain.
		for _, c := range conns {
			c.fail()
		}
		<-connsDone
	}

	if err := s.db.Close(); err != nil {
		errs = append(errs, fmt.Errorf("server: closing database: %w", err))
	}
	return errors.Join(errs...)
}

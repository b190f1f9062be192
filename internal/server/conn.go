package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/wire"
)

// conn is one client connection. Two goroutines drive it: a read loop
// (handshake, frame decode, admission) and a writer draining out.
// Responses are queued on out by dispatch goroutines in completion
// order, which is what gives the protocol out-of-order pipelining. A
// call lives in one of the connection's PerConnInFlight slots from
// admission to its response; the free slots are the admission window.
//
// Teardown order is load-bearing: the read loop exits first, waits
// for every admitted request it let in (reqs), then closes out; the
// writer writes what is left and closes the socket. Senders therefore
// never race the close — a dispatch goroutine's put happens strictly
// before its reqs.Done, which happens before reqs.Wait returns.
type conn struct {
	srv *Server
	nc  net.Conn
	out outQueue

	// sess is the exactly-once session bound in the handshake (nil
	// when dedup is disabled). Written once before the first call is
	// admitted, read by the same read loop thereafter.
	sess *session

	reqs sync.WaitGroup // this connection's admitted, unanswered requests

	free chan *request // the slots no call occupies

	// Read-loop state: scratch is where the loop encodes the frames it
	// answers itself (handshake, rejections, dedup replays); procs
	// interns the names of the procedures this connection has called.
	scratch []byte
	procs   map[string]string

	// dead flips when a write fails or shutdown forces the socket
	// closed; the writer then discards instead of writing, so senders
	// drain without blocking on a broken peer.
	dead      atomic.Bool
	closeOnce sync.Once
}

// acquire takes a free slot for an arriving call; nil means the
// connection's pipeline is full.
//
//thedb:noalloc
func (c *conn) acquire() *request {
	select {
	case req := <-c.free:
		return req
	default:
		return nil
	}
}

// release frees an answered call's slot. The caller must not touch req
// afterwards: its next occupant may already be decoding into it.
//
//thedb:noalloc
func (c *conn) release(req *request) {
	req.sess, req.entry = nil, nil
	c.free <- req
}

// outQueue is a connection's outbound bytes: two buffers, one filling
// with encoded frames while the writer goroutine has the other on the
// wire. The writer is woken only when the filling buffer goes from
// empty to non-empty, so a burst of pipelined responses costs one
// wake, one write deadline and one write(2). A buffer holds at most
// max frames, and a sender past that blocks until the writer swaps: a
// peer that stops reading stalls only senders to its own connection,
// until writeTimeout kills it.
type outQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // the writer waits here
	space    sync.Cond // senders wait here while the buffer is full
	buf      []byte
	frames   int
	max      int
	closed   bool
}

// put queues a copy of one encoded frame. Callers must hold an
// admission slot (reqs) or be the read loop itself (see conn).
func (q *outQueue) put(frame []byte) {
	q.mu.Lock()
	for q.frames >= q.max {
		q.space.Wait()
	}
	wake := len(q.buf) == 0
	q.buf = append(q.buf, frame...)
	q.frames++
	q.mu.Unlock()
	if wake {
		q.nonEmpty.Signal()
	}
}

// take blocks until frames are queued, hands them to the writer and
// leaves spare to fill; ok is false once the queue is closed and empty.
func (q *outQueue) take(spare []byte) (out []byte, ok bool) {
	q.mu.Lock()
	for len(q.buf) == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	out = q.buf
	q.buf, q.frames = spare, 0
	q.mu.Unlock()
	q.space.Broadcast()
	return out, len(out) > 0
}

// close lets the writer exit once it has written what is queued.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Signal()
}

// countConn wraps a net.Conn, feeding byte counts into the server
// stats.
type countConn struct {
	net.Conn
	stats *metrics.Server
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.stats.Add(&c.stats.BytesIn, int64(n))
	}
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.stats.Add(&c.stats.BytesOut, int64(n))
	}
	return n, err
}

// startConn registers a new connection and launches its goroutine
// pair.
func (s *Server) startConn(raw net.Conn) {
	nc := countConn{Conn: raw, stats: s.stats}
	n := s.cfg.PerConnInFlight
	c := &conn{srv: s, nc: nc, free: make(chan *request, n), procs: map[string]string{}}
	slots := make([]request, n)
	for i := range slots {
		slots[i].c = c
		c.free <- &slots[i]
	}
	// Room for the admission window plus reader-side rejections, so
	// dispatchers almost never block on a slow peer.
	c.out.max = n + 16
	c.out.nonEmpty.L = &c.out.mu
	c.out.space.L = &c.out.mu
	// Register under mu, which Shutdown takes after raising draining:
	// a connection accepted as the drain began is either counted before
	// Shutdown snapshots s.conns and waits on connWG, or refused here.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cerr := raw.Close()
		_ = cerr // the connection never served; nothing durable rides on it
		return
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(2)
	s.mu.Unlock()
	s.stats.Inc(&s.stats.ConnsOpened)
	go c.readLoop()
	go c.writeLoop()
}

// reject answers request id with a typed error from the read loop.
func (c *conn) reject(id uint64, e wire.RemoteError) {
	c.scratch = wire.AppendError(c.scratch[:0], id, e)
	c.out.put(c.scratch)
}

// wake unblocks a read loop parked in a blocking read (used by
// Shutdown). The expired deadline makes the pending read return
// immediately with a timeout error.
func (c *conn) wake() {
	if err := c.nc.SetReadDeadline(time.Now()); err != nil {
		c.fail()
	}
}

// fail marks the connection broken and closes the socket immediately,
// unblocking both goroutines. Pending output is discarded — the peer
// is gone — but accounting still drains normally.
func (c *conn) fail() {
	c.dead.Store(true)
	c.closeNC()
}

// closeNC closes the socket exactly once. The close error is reported
// through the server stats rather than dropped: a failed close on an
// already-broken conn is noise, but on a healthy conn it can mask
// lost response bytes.
func (c *conn) closeNC() {
	c.closeOnce.Do(func() {
		if err := c.nc.Close(); err != nil && !c.dead.Load() {
			c.srv.stats.Inc(&c.srv.stats.BadFrames)
		}
	})
}

// readLoop performs the handshake then decodes and admits call frames
// until the peer hangs up, a protocol violation occurs, or shutdown
// wakes it.
func (c *conn) readLoop() {
	s := c.srv
	defer s.connWG.Done()
	defer func() {
		// All admitted requests answered, then hand the queue to the
		// writer for the final write + socket close.
		c.reqs.Wait()
		c.out.close()
		if c.sess != nil {
			c.sess.release()
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(c.nc, 64<<10)
	fr := wire.NewReader(br, s.cfg.MaxFrame)

	if !c.handshake(fr) {
		return
	}

	for {
		f, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.stats.Inc(&s.stats.BadFrames)
			}
			return
		}
		c.serve(f)
	}
}

// serve answers one frame: a rejection, or a call decoded into a free
// slot and admitted.
func (c *conn) serve(f wire.Frame) {
	s := c.srv
	if f.Op != wire.OpCall {
		s.stats.Inc(&s.stats.BadFrames)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "expected CALL frame, got " + wire.OpName(f.Op)})
		return
	}
	req := c.acquire()
	if req == nil {
		s.stats.Inc(&s.stats.Shed)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeShed, Backoff: shedHint, Msg: "connection pipeline full"})
		return
	}
	name, err := wire.DecodeCallInto(&req.call, f.Payload)
	if err != nil {
		c.release(req)
		s.stats.Inc(&s.stats.BadFrames)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "malformed CALL: " + err.Error()})
		return
	}
	// The lookup does not materialize the string; a hit yields the
	// interned name every later stage uses.
	proc, ok := c.procs[string(name)]
	if !ok {
		proc = string(name)
		if !s.db.HasProcedure(proc) {
			c.release(req)
			c.reject(f.ID, wire.RemoteError{Code: wire.CodeUnknownProc, Msg: "no such procedure " + proc})
			return
		}
		c.procs[proc] = proc
	}
	req.id, req.call.Proc = f.ID, proc
	c.admit(req)
}

// admit applies the admission policy to one decoded call: refuse a
// dead deadline budget, dedup a retried sequence number, refuse new
// work while draining, shed when the global queue is full, otherwise
// hand it to the dispatchers. Refusals always answer with a retryable
// typed error plus backoff hint — never a silent drop.
func (c *conn) admit(req *request) {
	s := c.srv
	req.arrival = time.Now()
	if s.tracer != nil {
		req.trace = req.call.TraceID
		if req.trace == 0 {
			// Untraced caller: mint the end-to-end ID at admission, from
			// a boot-salted counter so IDs stay unique across restarts.
			req.trace = wire.MintTraceID(s.traceCtr.Add(1) + s.incarnation)
		}
	}
	if b := req.budget(); b > 0 && time.Since(req.arrival) >= b {
		// The caller's context died in transit; nothing was admitted,
		// so answer plainly without touching the accounting or window.
		s.stats.Inc(&s.stats.DeadlineRejected)
		c.reject(req.id, wire.RemoteError{Code: wire.CodeDeadline, Msg: "deadline budget exhausted at admission"})
		c.release(req)
		return
	}
	// Account before offering: a dispatcher may pick the request up
	// and finish it the instant it lands in the channel.
	s.pending.Add(1)
	c.reqs.Add(1)
	s.stats.Add(&s.stats.InFlight, 1)
	// Read-only snapshot calls skip the dedup window: they write
	// nothing, so re-executing a retry is safe and cheaper than
	// caching responses for it.
	if c.sess != nil && req.call.Seq != 0 && !req.call.ReadOnly {
		req.sess = c.sess
		switch c.sess.register(req, &c.scratch) {
		case dedupHit:
			// Already executed: replay the cached response (register
			// copied it into scratch) under the retry's request id.
			s.stats.Inc(&s.stats.DedupHits)
			if tr := s.tracer; tr != nil {
				// A cached replay never reaches the engine, so record
				// its trace here (always retained: outcome ≠ committed).
				t := obs.Trace{
					ID: req.trace, Proc: req.call.Proc, Worker: -1,
					Outcome: obs.TraceDedupHit,
					StartNS: req.arrival.UnixNano(),
					TotalUS: time.Since(req.arrival).Microseconds(),
				}
				tr.Keep(&t)
			}
			wire.SetID(c.scratch, req.id)
			c.out.put(c.scratch)
			s.finish(req)
			return
		case dedupJoined:
			// The original attempt is still executing; this retry is
			// parked on its entry, slot and accounting held, and answered
			// by respond when the one execution completes.
			s.stats.Inc(&s.stats.DedupCoalesced)
			return
		}
	}
	// The draining flag is read after the increments above (Shutdown
	// sets it, then reads the counter: one side sees the other) and
	// after the dedup window: a duplicate of a frame this incarnation
	// admitted shares that call's answer. A retryable "never ran" would
	// send the client to the next incarnation, whose window is empty.
	if s.draining.Load() {
		s.stats.Inc(&s.stats.DrainRejected)
		c.refuse(req, wire.RemoteError{Code: wire.CodeDraining, Backoff: drainHint, Msg: "server draining"})
		return
	}
	select {
	case s.work <- req:
		s.stats.Inc(&s.stats.Requests)
	default:
		s.stats.Inc(&s.stats.Shed)
		c.refuse(req, wire.RemoteError{Code: wire.CodeShed, Backoff: shedHint, Msg: "server at capacity"})
	}
}

// refuse answers an accounted request, and any retry already parked on
// its dedup entry, with an error that is never cached.
func (c *conn) refuse(req *request, e wire.RemoteError) {
	c.scratch = wire.AppendError(c.scratch[:0], req.id, e)
	c.srv.respond(req, c.scratch, false)
}

// handshake reads the client hello and answers with the server's
// limits. Returns false when the connection should be torn down.
func (c *conn) handshake(fr *wire.Reader) bool {
	s := c.srv
	if err := c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return false
	}
	f, err := fr.Next()
	if err != nil {
		if errors.Is(err, wire.ErrBadVersion) {
			// The header parsed; tell the peer why before hanging up.
			c.reject(0, wire.RemoteError{Code: wire.CodeVersion, Msg: "unsupported protocol version"})
		} else if !errors.Is(err, io.EOF) {
			s.stats.Inc(&s.stats.BadFrames)
		}
		return false
	}
	if f.Op != wire.OpHello {
		s.stats.Inc(&s.stats.BadFrames)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "expected HELLO, got " + wire.OpName(f.Op)})
		return false
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.stats.Inc(&s.stats.BadFrames)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "malformed HELLO: " + err.Error()})
		return false
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return false
	}
	w := wire.Welcome{
		MaxFrame:    uint32(s.cfg.MaxFrame),
		MaxInFlight: uint32(s.cfg.PerConnInFlight),
		Server:      banner,
		Incarnation: s.incarnation,
	}
	if s.cfg.DedupWindow > 0 {
		c.sess = s.bindSession(h.Session)
		w.Session = c.sess.token
		w.DedupWindow = uint32(s.cfg.DedupWindow)
	}
	c.scratch = wire.AppendWelcome(c.scratch[:0], w)
	c.out.put(c.scratch)
	return true
}

// writeLoop swaps the out queue's buffers and writes what the swap
// yields: everything queued during the previous write shares one
// deadline and one syscall.
func (c *conn) writeLoop() {
	s := c.srv
	defer s.connWG.Done()
	var spare []byte
	for {
		buf, ok := c.out.take(spare)
		if !ok {
			break
		}
		if !c.dead.Load() { // else the peer is gone; drain so senders never block
			if err := c.nc.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
				c.fail()
			} else if _, err := c.nc.Write(buf); err != nil {
				c.fail()
			}
		}
		spare = wire.Recycle(buf)
	}
	c.closeNC()
	s.stats.Inc(&s.stats.ConnsClosed)
}

// isTimeout reports whether err is a network timeout (a shutdown
// wake — expected teardown, not a protocol fault).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

package server

import (
	"errors"
	"io"
	"math"
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
// call lives in one of the connection's perConnInFlight slots from
// admission to its response; the free slots are the admission window.
//
// The read loop's unit of work is the burst: the complete frames
// already in its read buffer. It decodes each into a slot, then admits
// them together (admit) — one clock read, one round of accounting, one
// dedup lock hold, one queue operation per run handed to a dispatcher.
//
// Teardown order is load-bearing: the read loop exits first, waits
// for every admitted request it let in (reqs), then closes out; the
// writer writes what is left and closes the socket. Senders therefore
// never race the close — a dispatch goroutine's puts happen strictly
// before it gives its run's count back to reqs, which happens before
// reqs.Wait returns.
type conn struct {
	srv *Server
	nc  net.Conn
	out outQueue

	// sess is the exactly-once session bound in the handshake: nil only
	// when the handshake failed. Written once before the first call is
	// admitted, read by the same read loop and by respond thereafter.
	sess *session

	reqs sync.WaitGroup // this connection's admitted, unanswered requests

	// Read-loop state. free is the loop's stack of slots no call
	// occupies, refilled from out.back when it runs dry; burst holds the
	// calls decoded from the current burst, in arrival order; scratch is
	// where the loop encodes the frames it answers itself (handshake,
	// rejections, dedup replays); procs interns the names of the
	// procedures this connection has called.
	free    []*request
	burst   []*request
	scratch []byte
	procs   map[string]string

	// dead flips when a write fails or shutdown forces the socket
	// closed; the writer then discards instead of writing, so senders
	// drain without blocking on a broken peer.
	dead      atomic.Bool
	closeOnce sync.Once
}

// acquire takes a free slot for an arriving call, swapping the loop's
// empty stack for the slots freed since the last swap when it has run
// dry; nil means the connection's pipeline is full. A slot is free from
// the moment its response is queued: perConnInFlight is an exact bound.
//
//thedb:noalloc
func (c *conn) acquire() *request {
	if len(c.free) == 0 {
		q := &c.out
		q.mu.Lock()
		c.free, q.back = q.back, c.free
		q.mu.Unlock()
		if len(c.free) == 0 {
			return nil
		}
	}
	req := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	req.entry, req.verdict, req.next = nil, dedupNew, nil
	return req
}

// outQueue is a connection's outbound bytes: two buffers, one filling
// with encoded frames while the writer goroutine has the other on the
// wire. The writer is woken only when the filling buffer goes from
// empty to non-empty, so a burst of pipelined responses costs one
// wake, one write deadline and one write(2). A buffer holds at most
// max frames, and a sender past that blocks until the writer swaps: a
// peer that stops reading stalls only senders to its own connection,
// until writeTimeout kills it.
//
// The queue carries answered calls' slots back to the read loop the
// same way: a response and its slot change hands under one lock hold.
type outQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // the writer waits here
	space    sync.Cond // senders wait here while the buffer is full
	buf      []byte
	frames   int
	max      int
	closed   bool
	back     []*request // slots freed since the read loop last swapped; cap = every slot
}

// put queues a copy of one encoded frame and, when the frame answers an
// admitted call, frees that call's slot: req must not be touched
// afterwards, its next occupant may already be decoding into it.
// Callers must hold an admission slot (reqs) or be the read loop itself
// (see conn), which passes nil and returns slots to its own stack.
//
//thedb:noalloc
func (q *outQueue) put(frame []byte, req *request) {
	q.mu.Lock()
	for q.frames >= q.max {
		q.space.Wait()
	}
	wake := len(q.buf) == 0
	//thedb:nolint:noalloc amortized growth: the two buffers grow to the largest burst of responses, then swap for the connection's life
	q.buf = append(q.buf, frame...)
	q.frames++
	if req != nil {
		q.back = q.back[:len(q.back)+1] // past capacity is a slot freed twice: panic
		q.back[len(q.back)-1] = req
	}
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
		c.stats.BytesIn.Add(int64(n))
	}
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.stats.BytesOut.Add(int64(n))
	}
	return n, err
}

// startConn registers a new connection and launches its goroutine
// pair.
func (s *Server) startConn(raw net.Conn) {
	nc := countConn{Conn: raw, stats: s.stats}
	const n = perConnInFlight
	c := &conn{srv: s, nc: nc, procs: map[string]string{}}
	slots := make([]request, n)
	c.free, c.burst, c.out.back = make([]*request, n), make([]*request, 0, n), make([]*request, 0, n)
	for i := range slots {
		slots[i].c = c
		c.free[i] = &slots[i]
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
	s.stats.ConnsOpened.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

// reject answers request id with a typed error from the read loop.
func (c *conn) reject(id uint64, e wire.RemoteError) {
	c.scratch = wire.AppendError(c.scratch[:0], id, e)
	c.out.put(c.scratch, nil)
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
			c.srv.stats.BadFrames.Add(1)
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
		if c.sess != nil { // nil: the handshake failed before binding one
			c.sess.release()
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	fr := wire.NewReader(c.nc, maxFrame)
	if !c.handshake(fr) {
		return
	}
	for {
		// One burst: block for a frame, then take every frame that
		// arrived with it. A burst cut short by a bad frame is still
		// admitted: its calls were sent before the fault.
		f, err := fr.Next()
		for err == nil {
			c.decode(f)
			if !fr.Buffered() {
				break
			}
			f, err = fr.Next()
		}
		if len(c.burst) > 0 {
			c.admit()
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.stats.BadFrames.Add(1)
			}
			return
		}
	}
}

// decode answers one frame with a rejection, or decodes its call into a
// free slot and appends it to the burst. The frame's payload is not
// referenced afterwards: it is the read buffer.
func (c *conn) decode(f wire.Frame) {
	s := c.srv
	if f.Op != wire.OpCall {
		s.stats.BadFrames.Add(1)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "expected CALL frame, got " + wire.OpName(f.Op)})
		return
	}
	req := c.acquire()
	if req == nil {
		s.stats.Shed.Add(1)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeShed, Backoff: shedHint, Msg: "connection pipeline full"})
		return
	}
	name, err := wire.DecodeCallInto(&req.call, f.Payload)
	if err != nil {
		c.free = append(c.free, req)
		s.stats.BadFrames.Add(1)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "malformed CALL: " + err.Error()})
		return
	}
	// The lookup does not materialize the string; a hit yields the
	// interned name every later stage uses.
	proc, ok := c.procs[string(name)]
	if !ok {
		proc = string(name)
		if !s.db.HasProcedure(proc) {
			c.free = append(c.free, req)
			c.reject(f.ID, wire.RemoteError{Code: wire.CodeUnknownProc, Msg: "no such procedure " + proc})
			return
		}
		c.procs[proc] = proc
	}
	req.id, req.call.Proc = f.ID, proc
	c.burst = append(c.burst, req)
}

// admit applies the admission policy to the decoded burst, paying for
// the burst what used to be paid per call: dedup retried sequence
// numbers, refuse new work while draining, shed what exceeds the global
// bound, and hand the rest to the dispatchers as runs. Refusals always
// answer with a retryable typed error plus backoff hint — never a
// silent drop.
func (c *conn) admit() {
	s := c.srv
	n, now := len(c.burst), time.Now()
	for _, req := range c.burst {
		// arrival anchors the deadline budget and the trace's queue wait.
		req.arrival = now
		if s.tracer != nil {
			if req.trace = req.call.TraceID; req.trace == 0 {
				// Untraced caller: mint the end-to-end ID at admission, from
				// a boot-salted counter so IDs stay unique across restarts.
				req.trace = wire.MintTraceID(s.traceCtr.Add(1) + s.incarnation)
			}
		}
	}
	// Account before offering: a dispatcher may pick a run up and finish
	// it the instant it lands in the channel. over is how far this burst
	// took pending past the global bound; done counts what this loop
	// answers itself and gives back at the end.
	over := int(s.pending.Add(int64(n))) - cap(s.work)
	c.reqs.Add(n)
	s.stats.InFlight.Add(int64(n))
	done := 0

	// Dedup, under one lock hold: afterwards a call is a hit (its cached
	// response is in scratch, in burst order), parked on the execution it
	// duplicates, or — like every call the window does not track — this
	// burst's to run.
	c.scratch = c.sess.register(c.burst, c.scratch[:0])
	replay, runs := c.scratch, c.burst[:0]
	for _, req := range c.burst {
		switch req.verdict {
		case dedupNew:
			runs = append(runs, req)
		case dedupJoined:
			// The original attempt is still executing; this retry is
			// parked on its entry, slot and accounting held, and answered
			// by respond when the one execution completes.
			s.stats.DedupCoalesced.Add(1)
		case dedupHit:
			// Already executed: replay the cached response under the
			// retry's request id.
			s.stats.DedupHits.Add(1)
			if tr := s.tracer; tr != nil {
				// A cached replay never reaches the engine, so record
				// its trace here (always retained: outcome ≠ committed).
				tr.Keep(&obs.Trace{
					ID: req.trace, Proc: req.call.Proc, Worker: -1,
					Outcome: obs.TraceDedupHit, StartNS: now.UnixNano(),
					TotalUS: time.Since(now).Microseconds(),
				})
			}
			_, size, _ := wire.DecodeFrame(replay, math.MaxInt32) // a frame this server encoded
			wire.SetID(replay, req.id)
			c.out.put(replay[:size], nil)
			replay = replay[size:]
			c.free = append(c.free, req)
			done++
		}
	}

	// The draining flag is read after the increments above (Shutdown
	// sets it, then reads the counter: one side sees the other) and
	// after the dedup window: a duplicate of a frame this incarnation
	// admitted shares that call's answer. A retryable "never ran" would
	// send the client to the next incarnation, whose window is empty.
	if s.draining.Load() {
		s.stats.DrainRejected.Add(int64(len(runs)))
		c.refuse(runs, wire.RemoteError{Code: wire.CodeDraining, Backoff: drainHint, Msg: "server draining"})
		done += len(runs)
		runs = nil
	} else if over > 0 {
		// The burst's tail goes back. The bound is never exceeded; bursts
		// racing each other may each count the other and shed more than
		// either would alone.
		shed := runs[max(len(runs)-over, 0):]
		s.stats.Shed.Add(int64(len(shed)))
		c.refuse(shed, wire.RemoteError{Code: wire.CodeShed, Backoff: shedHint, Msg: "server at capacity"})
		done += len(shed)
		runs = runs[:len(runs)-len(shed)]
	}
	if len(runs) > 0 {
		c.handOff(runs)
	}
	c.burst = c.burst[:0]
	if done > 0 {
		s.finish(c, done)
	}
}

// handOff queues a burst's admitted calls for the dispatchers as at
// most one contiguous run per worker, so a lone pipelining connection
// still occupies every session. The queue has room for every admitted
// call and a run holds at least one: a send never blocks.
//
//thedb:noalloc
func (c *conn) handOff(calls []*request) {
	s := c.srv
	k := min(len(calls), s.db.Workers())
	s.stats.Requests.Add(int64(len(calls)))
	s.stats.Runs.Add(int64(k))
	for i := 0; i < k; i++ {
		run := calls[i*len(calls)/k : (i+1)*len(calls)/k]
		for j := 1; j < len(run); j++ {
			run[j-1].next = run[j]
		}
		s.work <- run[0]
	}
}

// refuse answers accounted requests, and any retries already parked on
// their dedup entries, with an error that is never cached; the caller
// gives their accounting back.
func (c *conn) refuse(reqs []*request, e wire.RemoteError) {
	for _, req := range reqs {
		c.scratch = wire.AppendError(c.scratch[:0], req.id, e)
		c.srv.respond(req, c.scratch, false)
	}
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
			s.stats.BadFrames.Add(1)
		}
		return false
	}
	if f.Op != wire.OpHello {
		s.stats.BadFrames.Add(1)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "expected HELLO, got " + wire.OpName(f.Op)})
		return false
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.stats.BadFrames.Add(1)
		c.reject(f.ID, wire.RemoteError{Code: wire.CodeBadRequest, Msg: "malformed HELLO: " + err.Error()})
		return false
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return false
	}
	c.sess = s.bindSession(h.Session)
	c.scratch = wire.AppendWelcome(c.scratch[:0], wire.Welcome{
		MaxFrame:    maxFrame,
		MaxInFlight: perConnInFlight,
		Server:      banner,
		Session:     c.sess.token,
		Incarnation: s.incarnation,
		DedupWindow: dedupWindow,
	})
	c.out.put(c.scratch, nil)
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
	s.stats.ConnsClosed.Add(1)
}

// isTimeout reports whether err is a network timeout (a shutdown
// wake — expected teardown, not a protocol fault).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Package session is the substrate-agnostic transport/session layer: the
// serving machinery that used to live inside internal/udplan — one demux
// loop with its own session table, per-session bodies running the
// unmodified core protocol engines, REQ-only session opening, streaming
// Source/SinkStream handlers and stripe-range resolution — lifted above the
// wire so the same server runs over real UDP sockets, the discrete-event
// simulator and the V kernel's simulated cluster. Substrates plug in through
// the small interfaces of internal/transport; everything here is
// wire-agnostic.
//
// This mirrors how large-scale transfer services separate the transfer
// orchestrator from the substrate (Globus and XRootD both serve many
// concurrent movers above a pluggable data channel), and it is what makes
// scale behaviour — session capacity, many-client fairness — reproducible
// deterministically on the simulator (see simrun.LoadScenario).
package session

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// drainPoll bounds how long a draining server blocks in Accept before
// re-checking whether its last session has completed.
const drainPoll = 50 * time.Millisecond

// Server answers transfer requests on one listener (Run) or several
// (RunAll): one demux loop routes arrivals by (source, transfer) into
// per-session bodies, each running the unmodified core protocol engines
// over its own channel-fed Env — the fan-out a daemon needs to serve many
// clients at once, on any substrate. One client conn may hold several
// sessions, one per transfer id it asks for. Concurrency caps the sessions
// in flight; at the default of one a transfer in progress owns the server
// (the paper's world of two matched machines) and other clients are
// refused with BUSY.
type Server struct {
	// Source, when non-nil, satisfies pull requests (MoveFrom) without
	// materialising them: it returns a streaming chunk source (see
	// core.ChunkSource), so a 1 GB pull never means a 1 GB allocation.
	// Striped requests resolve their range through the REQ's stripe fields
	// (wire.Req.OffsetChunks/Total) exactly as unstriped ones; the handler
	// sees the narrowed request.
	Source func(wire.Req) (core.ChunkSource, bool)

	// SourceEnv is Source with the session's protocol environment passed
	// through, for sources whose reads are charged to the substrate's
	// clock — a store whose simulated disk spends the serving host's
	// virtual time (env.Compute) per miss. Preferred over Source when both
	// are set.
	SourceEnv func(wire.Req, core.Env) (core.ChunkSource, bool)

	// Stat, when non-nil, answers stat requests (wire.Req.Stat): it
	// returns the named object's size. The session replies with an
	// ack-sized FIN carrying the size and stays open for the pull that
	// usually follows — as long as a finished transfer lingers, 2·Tr +
	// 100 ms with the stat's Tr; a later pull opens a session of its own.
	// Rejected or unresolvable names are dropped (the client's retry gives
	// up on its own schedule). Stat REQs are answered from the accept hook,
	// so a retransmitted stat earns an idempotent re-reply.
	Stat func(wire.Req) (int64, bool)

	// Copy, when non-nil, serves third-party copy requests (wire.Req.Copy):
	// asked to move the object named by req.Name to the server at
	// req.Target, it performs the push on the serving substrate — dialing
	// the target itself — and returns the bytes moved. progress must be
	// called with the running byte count as the push advances; the session
	// relays quantised progress acks to the orchestrator (see
	// core.ServeCopy), whose patience window they keep open. An error
	// return is relayed verbatim as the copy's failure text.
	Copy func(req wire.Req, env core.Env, progress func(int64)) (int64, error)

	// SinkStream, when non-nil, accepts push requests (MoveTo) without
	// buffering: it returns a per-transfer chunk sink plus a completion
	// callback that receives the final result (byte count, incremental
	// checksum). done is called exactly once per accepted push, whether or
	// not the transfer completed — check RecvResult.Completed before
	// trusting the bytes — so implementations can release per-transfer
	// resources (close files) on aborts too.
	SinkStream func(wire.Req) (sink core.ChunkSink, done func(core.RecvResult), ok bool)

	// Idle bounds how long Run waits for the next request; zero waits
	// forever (until the listener closes).
	Idle time.Duration

	// Concurrency caps the number of simultaneous sessions; requests beyond
	// the cap are refused with a best-effort BUSY/RETRY-AFTER reply (when
	// the listener can address one) and otherwise dropped — either way the
	// client retries on its own schedule. Values <= 1 mean a single session
	// at a time: the same demux loop with a cap of one.
	Concurrency int

	// RetryAfter is the back-off hint carried on BUSY refusals (default
	// 250ms): how soon a refused client should re-request.
	RetryAfter time.Duration

	// SessionIdle bounds how long an admitted session may sit quiet before
	// it is reaped (default: Idle when set, else 30s) — a client that
	// vanished mid-handshake must not hold a session slot forever.
	SessionIdle time.Duration

	// Validate, when non-nil, checks an accepted transfer configuration
	// against substrate limits (an MTU, say) before the session starts.
	Validate func(core.Config) error

	// Logf, when non-nil, receives operational log lines (rejections,
	// session errors, cap drops).
	Logf func(format string, args ...any)

	// Done, when non-nil, is called after every completed transfer with
	// its stats — the per-peer rate log hook.
	Done func(TransferStats)

	mu       sync.Mutex
	served   int
	active   atomic.Int32 // sessions admitted by the demux loops
	draining atomic.Bool
	limiter  logLimiter
	paths    PathTable
}

// logLimiter rate-limits per-peer operational log lines to one per second,
// so a REQ storm (refused admissions, degenerate requests) cannot spam the
// log with one line per packet.
type logLimiter struct {
	mu   sync.Mutex
	last map[string]time.Time
}

// allowKey reports whether a line keyed by raw demux-key bytes may log now.
// The lookup itself does not allocate; only the once-per-second insert does.
func (ll *logLimiter) allowKey(key []byte, now time.Time) bool {
	ll.mu.Lock()
	defer ll.mu.Unlock()
	if t, ok := ll.last[string(key)]; ok && now.Sub(t) < time.Second {
		return false
	}
	ll.insert(string(key), now)
	return true
}

// allowString is allowKey for string-identified peers.
func (ll *logLimiter) allowString(key string, now time.Time) bool {
	ll.mu.Lock()
	defer ll.mu.Unlock()
	if t, ok := ll.last[key]; ok && now.Sub(t) < time.Second {
		return false
	}
	ll.insert(key, now)
	return true
}

func (ll *logLimiter) insert(key string, now time.Time) {
	if ll.last == nil {
		ll.last = make(map[string]time.Time)
	}
	if len(ll.last) > 4096 {
		// A storm of spoofed sources must not grow the map without bound.
		clear(ll.last)
	}
	ll.last[key] = now
}

// TransferStats reports one completed transfer for the Done hook.
type TransferStats struct {
	Peer        transport.Peer
	Req         wire.Req
	TransferID  uint32
	Push        bool
	Bytes       int
	Elapsed     time.Duration
	Packets     int // data packets (received for pushes, sent for pulls)
	Retransmits int // pulls only
	Timeouts    int // pulls only: the sender's response waits that expired
	// RTOFromPath reports that the pull sender's retransmission estimator
	// started from the last smoothed RTT to the peer's host, not from Tr.
	RTOFromPath bool
	Checksum    uint16
	// Controller is the pull sender's rate-control trajectory; nil when no
	// policy ran.
	Controller *core.ControllerStats
}

// MBps returns the transfer's application-level throughput in MB/s.
func (t TransferStats) MBps() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Bytes) / t.Elapsed.Seconds() / 1e6
}

// Served reports how many transfers completed successfully.
func (s *Server) Served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// Active reports how many sessions are currently admitted.
func (s *Server) Active() int { return int(s.active.Load()) }

// BeginDrain puts the server into graceful shutdown: no new session opens
// (a REQ beyond this point is dropped and the client's retry will find the
// server gone), and Run returns once the sessions already in flight have
// completed. Callers that want a bound put a timer on Run's return and
// force the issue by closing the listener's socket.
func (s *Server) BeginDrain() { s.draining.Store(true) }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// logfPeer logs at most one line per peer per second.
func (s *Server) logfPeer(peer transport.Peer, format string, args ...any) {
	if s.Logf == nil {
		return
	}
	if !s.limiter.allowString(peer.String(), time.Now()) {
		return
	}
	s.Logf(format, args...)
}

func (s *Server) retryAfter() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return 250 * time.Millisecond
}

// refuse answers an admissible REQ the server will not serve: a best-effort
// BUSY/RETRY-AFTER reply when the listener can address one (clients honor
// the hint, see core.PullResume), plus a rate-limited log line — one per
// peer per second, not one per packet.
func (s *Server) refuse(l transport.Listener, inb transport.Inbound, why string) {
	retry := s.retryAfter()
	if br, ok := l.(transport.BusyReplier); ok {
		_ = br.ReplyBusy(inb.Msg, retry)
	}
	if s.Logf != nil && s.limiter.allowKey(inb.Key, time.Now()) {
		s.Logf("session: %s (active %d/%d); replying BUSY to %x (retry-after %v)",
			why, s.active.Load(), s.concurrency(), inb.Key, retry)
	}
}

func (s *Server) concurrency() int {
	if s.Concurrency < 1 {
		return 1
	}
	return s.Concurrency
}

// session is one client conversation.
type session struct {
	key  string
	conn transport.Conn
}

// Run is the demux loop feeding per-session bodies through the listener's
// conns. It returns nil on a clean close
// (listener closed, idle bound reached with nothing in flight, or drain
// completed) and blocks until every session body has returned.
func (s *Server) Run(l transport.Listener) error {
	table := &sessionTable{m: make(map[string]*session)}
	defer func() {
		table.hangupAll()
		l.Drain()
	}()

	// Listeners with cheap timeouts (sockets) advertise a poll bound, so an
	// unbounded-Idle server still notices BeginDrain within one poll instead
	// of blocking in Accept until the next arrival. Virtual-time listeners
	// advertise none — polling forever would keep the event heap alive.
	poll := time.Duration(0)
	if p, ok := l.(interface{ AcceptPoll() time.Duration }); ok {
		poll = p.AcceptPoll()
	}

	for {
		idle := s.Idle
		if idle <= 0 {
			idle = poll // 0 still means block forever
		}
		if s.draining.Load() {
			if s.active.Load() == 0 {
				return nil
			}
			// Poll so the loop notices the last session completing even if
			// the network has gone quiet.
			if idle <= 0 || idle > drainPoll {
				idle = drainPoll
			}
		}
		inb, err := l.Accept(idle)
		if err != nil {
			if core.IsTimeout(err) {
				if s.active.Load() == 0 && (s.Idle > 0 || s.draining.Load()) {
					return nil // idle bound reached
				}
				continue
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}

		sess := table.get(inb.Key)
		if sess == nil {
			// Only a checksum-valid REQ opens a session: stragglers from
			// finished transfers cannot claim server state.
			if _, ok := l.ReqOf(inb.Msg); !ok {
				continue
			}
			if s.draining.Load() {
				s.refuse(l, inb, "draining")
				continue
			}
			if int(s.active.Load()) >= s.concurrency() {
				s.refuse(l, inb, "at session cap")
				continue
			}
			conn, peer, err := l.Open()
			if err != nil {
				continue // unresolvable source
			}
			sess = &session{key: string(inb.Key), conn: conn}
			table.put(sess)
			s.active.Add(1)
			key := sess.key
			conn.Spawn("session", func(env core.Env) {
				s.runSession(env, peer)
				table.remove(key)
				s.active.Add(-1)
			})
		}
		sess.conn.Deliver(inb.Msg)
	}
}

// RunAll runs one demux loop per listener over the same server state — the
// SO_REUSEPORT multi-queue daemon. The kernel hashes each client flow to
// exactly one socket, so every loop owns its sessions outright (per-loop
// session tables, no cross-loop lookups), while the admission cap, drain
// flag and Served/Done accounting are shared atomics and mutexes — N loops
// never double-count a transfer or race the Done hook. Blocks until every
// loop has returned; the first loop error wins (nil on clean closes).
func (s *Server) RunAll(ls ...transport.Listener) error {
	if len(ls) == 1 {
		return s.Run(ls[0])
	}
	errs := make([]error, len(ls))
	var wg sync.WaitGroup
	for i := range ls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Run(ls[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSession drives one client conversation to completion.
func (s *Server) runSession(env core.Env, peer transport.Peer) {
	// The opening REQ is already queued; the idle bound reaps a session
	// whose client vanished mid-handshake so it cannot hold a slot forever.
	idle := s.SessionIdle
	if idle <= 0 {
		idle = s.Idle
	}
	if idle <= 0 {
		idle = 30 * time.Second
	}
	err := s.serve(env, idle, peer)
	if err != nil && !core.IsTimeout(err) && !errors.Is(err, net.ErrClosed) {
		s.logf("session: %v: %v", peer, err)
	}
}

// linger is how long a session outlives its last exchange with a client
// whose retransmission timeout is tr: a finished transfer's re-ack window,
// and a stat's wait for the pull that follows it.
func linger(tr time.Duration) time.Duration { return 2*tr + 100*time.Millisecond }

// serve accepts one request on env and completes the transfer, dispatching
// to the server's streaming handlers: the whole per-session protocol path.
func (s *Server) serve(env core.Env, idle time.Duration, peer transport.Peer) error {
	var (
		isPush   bool
		isCopy   bool
		req      wire.Req
		pushDone func(core.RecvResult)
		statted  bool // the last REQ was a stat, answered from the hook
	)
	// refuse answers a request the server will not serve with its reason,
	// so the client fails at once with a typed error instead of asking
	// until it gives up, and ends the session.
	refuse := func(trans uint32, reason string) (core.Config, bool) {
		if err := env.Send(core.Refusal(trans, reason)); err != nil {
			s.logf("session: refusal to %v: %v", peer, err)
		}
		return core.Config{}, false
	}
	accept := func(r wire.Req, trans uint32) (core.Config, bool) {
		if r.Copy {
			// A copy ask opens a control session, not a transfer: the
			// session relays progress while the Copy hook moves the bytes
			// to the third party. Servers without the hook refuse it.
			if s.Copy == nil {
				s.logfPeer(peer, "session: copy %q to %q from %v: no copy handler", r.Name, r.Target, peer)
				return refuse(trans, "no copy handler")
			}
			req, isCopy = r, true
			c := core.Config{}
			if r.TrMicros > 0 {
				c.RetransTimeout = time.Duration(r.TrMicros) * time.Microsecond
			}
			return c, true
		}
		if r.Stat {
			// A stat is a control exchange, not a transfer: answer it from
			// the accept hook and keep the session waiting for the pull
			// that usually follows, but only as long as a transfer
			// lingers. Retransmitted stats earn idempotent re-replies;
			// unresolvable names are refused.
			if s.Stat == nil {
				return refuse(trans, "no stat handler")
			}
			size, ok := s.Stat(r)
			if !ok {
				s.logfPeer(peer, "session: stat %q from %v: no such object", r.Name, peer)
				return refuse(trans, fmt.Sprintf("no such object %q", r.Name))
			}
			if serr := env.Send(core.StatReply(trans, size)); serr != nil {
				s.logf("session: stat reply to %v: %v", peer, serr)
			}
			statted, idle = true, linger(time.Duration(r.TrMicros)*time.Microsecond)
			return core.Config{}, true
		}
		c := core.ConfigOf(0, r)
		// Bounded linger/idle: the simulation defaults are sized for free
		// virtual time and would stall the server between clients. The same
		// bounds apply on every substrate — on the simulator they are cheap
		// virtual waits — so one scenario behaves identically everywhere.
		c.Linger = linger(c.RetransTimeout)
		c.ReceiverIdle = 8*c.RetransTimeout + 2*time.Second
		if s.Validate != nil {
			if verr := s.Validate(c); verr != nil {
				// Rate-limited: a degenerate-REQ storm (one malformed client
				// retransmitting hard) must not write a log line per packet.
				s.logfPeer(peer, "session: rejecting request from %v: %v", peer, verr)
				return refuse(trans, verr.Error())
			}
		}
		req, isPush = r, r.Push
		if r.Push {
			if s.SinkStream == nil {
				return refuse(trans, "pushes are not accepted")
			}
			sink, done, ok := s.SinkStream(r)
			if !ok {
				return refuse(trans, "push refused")
			}
			c.Sink, pushDone = sink, done
			return c, true
		}
		if s.SourceEnv != nil {
			src, ok := s.SourceEnv(r, env)
			if !ok {
				return refuse(trans, "pull refused")
			}
			c.Source = src
			return c, true
		}
		if s.Source == nil {
			return refuse(trans, "pulls are not served")
		}
		src, ok := s.Source(r)
		if !ok {
			return refuse(trans, "pull refused")
		}
		c.Source = src
		return c, true
	}
	// A stat ends the wait it was answered in; the wait for the pull
	// starts over, bounded by the stat's linger. A refused request ends the
	// session once refused (accept logged why, rate-limited), freeing its
	// slot.
	var cfg core.Config
	for {
		var ok bool
		var err error
		if cfg, ok, err = core.ServeOnceID(env, idle, accept); err != nil || !ok {
			return err
		}
		if !statted {
			break
		}
		statted = false
	}
	stats := TransferStats{Peer: peer, Req: req, TransferID: cfg.TransferID, Push: isPush}
	if isCopy {
		t0 := env.Now()
		bytes, cerr := core.ServeCopy(env, cfg, func(progress func(int64)) (int64, error) {
			return s.Copy(req, env, progress)
		})
		if cerr != nil {
			// The failure already went to the orchestrator as the copy's
			// NAK text; surface it here for the server's own log too.
			return fmt.Errorf("session: serving copy %q to %q: %w", req.Name, req.Target, cerr)
		}
		stats.Bytes, stats.Elapsed = int(bytes), env.Now()-t0
		s.mu.Lock()
		s.served++
		s.mu.Unlock()
		if s.Done != nil {
			s.Done(stats)
		}
		return nil
	}
	if isPush {
		// The sink's completion callback must run exactly once on every
		// exit path — success, protocol error, a hangup-induced abort or a
		// panic unwinding the session — or the daemon leaks the sink's
		// per-transfer resources (an open file, a partial transfer on
		// disk). finish is idempotent and a deferred call backstops any
		// path that misses it, delivering whatever result was reached
		// (zero-valued, Completed=false, if AcceptPush never returned).
		finish := func(res core.RecvResult) {
			if pushDone == nil {
				return
			}
			done := pushDone
			pushDone = nil
			done(res)
		}
		var last core.RecvResult
		defer func() { finish(last) }()
		res, err := core.AcceptPush(env, cfg)
		last = res
		if err != nil {
			// Completed is false on this path; the sink releases its
			// resources and discards partials.
			finish(res)
			return fmt.Errorf("session: accepting push: %w", err)
		}
		finish(res)
		stats.Bytes, stats.Elapsed = res.Bytes, res.Elapsed
		stats.Packets, stats.Checksum = res.DataPackets, res.Checksum
	} else {
		// The sender starts from, and leaves behind, the path's smoothed
		// RTT; the REQ's Tr is its ceiling.
		cfg.PathRTT = s.paths.Get(peer)
		res, err := core.RunSender(env, cfg)
		if res.SRTT > 0 {
			s.paths.Put(peer, res.SRTT)
		}
		if err != nil {
			return fmt.Errorf("session: serving pull: %w", err)
		}
		stats.Bytes, stats.Elapsed = cfg.Bytes, res.Elapsed
		stats.Packets, stats.Retransmits = res.DataPackets, res.Retransmits
		stats.Timeouts, stats.RTOFromPath = res.Timeouts, cfg.PathRTT > 0
		stats.Controller = res.Controller
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	if s.Done != nil {
		s.Done(stats)
	}
	return nil
}

// sessionTable is one demux loop's session map. The loop alone looks
// sessions up and puts them in; a finished session removes itself from its
// own goroutine, so one mutex guards the map.
type sessionTable struct {
	mu sync.Mutex
	m  map[string]*session
}

// get looks a session up by raw key bytes without allocating.
func (t *sessionTable) get(k []byte) *session {
	t.mu.Lock()
	s := t.m[string(k)]
	t.mu.Unlock()
	return s
}

func (t *sessionTable) put(s *session) {
	t.mu.Lock()
	t.m[s.key] = s
	t.mu.Unlock()
}

func (t *sessionTable) remove(key string) {
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
}

// hangupAll closes every live session's inbox (the demux loop has stopped;
// sessions drain and exit).
func (t *sessionTable) hangupAll() {
	t.mu.Lock()
	for k, s := range t.m {
		s.conn.Hangup()
		delete(t.m, k)
	}
	t.mu.Unlock()
}

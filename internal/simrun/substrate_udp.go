package simrun

import (
	"fmt"
	"net"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/transport"
	"blastlan/internal/udplan"
)

// UDP carries the inputs only real sockets have — everything else a
// scenario's UDP run needs is the scenario the DES runs.
type UDP struct {
	// Batch is every socket's syscall batch size (<= 1: a syscall per
	// packet).
	Batch int
	// SocketBuf sizes every socket's kernel buffers (default 4 MiB).
	SocketBuf int
	// LineRate, when positive, models every server's socket — the source's
	// and each relay's — as a serializing link of this many egress bytes/s
	// (udplan.Server.LineRate), so a comparison of topologies measures which
	// socket carries how many copies instead of loopback CPU.
	LineRate int
	// KeepData has every client assemble its payload and verify it byte for
	// byte; otherwise clients verify by checksum alone and hold nothing — a
	// bench row fanning 16 MB out to 8 receivers must not assemble 128 MB.
	// (A fan-out receiver's assembled bytes are FanoutReceiverResult.Data.)
	KeepData bool
}

// udpWorld is the UDP binding: every server a udplan.Server on its own
// loopback socket with its demux loop on a goroutine, every client a
// goroutine over its own dialed socket, timers on the wall clock.
type udpWorld struct {
	opt      UDP
	start    time.Time
	clients  sync.WaitGroup
	restarts sync.WaitGroup
	loops    sync.WaitGroup // every server incarnation's demux loop
	timers   []*time.Timer

	hosts   []*udpHost // in serve order; serve and run share the orchestration's goroutine
	mu      sync.Mutex // crashes, restarts and loops end on their own goroutines
	closing bool       // run has begun stopping the servers: no more crashes
	failed  error      // the first restart that could not rebind or loop that died
}

// udpHost is a UDP server: the address it owns, how to set a server up on
// it, and the incarnation serving there.
type udpHost struct {
	name  string
	addr  string
	setup func(*session.Server)
	cur   *udplan.Server // nil while crashed
}

func newUDPWorld(opt UDP) *udpWorld {
	if opt.SocketBuf <= 0 {
		opt.SocketBuf = 4 << 20
	}
	return &udpWorld{opt: opt, start: time.Now()}
}

// serve binds a loopback socket and runs the server on it. A failed bind
// stops the servers already started: the world is unusable.
func (w *udpWorld) serve(name string, setup func(*session.Server)) (host, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		w.run()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	h := &udpHost{name: name, addr: conn.LocalAddr().String(), setup: setup}
	w.hosts = append(w.hosts, h)
	w.incarnate(h, conn)
	return h, nil
}

// incarnate runs a fresh server, set up by h.setup, on conn.
func (w *udpWorld) incarnate(h *udpHost, conn net.PacketConn) {
	udplan.SetConnBuffers(conn, w.opt.SocketBuf)
	srv := udplan.NewServer(conn)
	srv.Batch = w.opt.Batch
	srv.LineRate = w.opt.LineRate
	h.setup(&srv.Server)
	w.mu.Lock()
	h.cur = srv
	w.mu.Unlock()
	w.loops.Add(1)
	go func() {
		defer w.loops.Done()
		if err := srv.Run(); err != nil {
			w.fail(fmt.Errorf("%s server: %w", h.name, err))
		}
	}()
}

// fail records the world's first failure.
func (w *udpWorld) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		w.failed = err
	}
}

func (w *udpWorld) client(_ string, at host, delay time.Duration, adv params.Adversary, seed int64,
	body func(core.Env)) {
	w.clients.Add(1)
	go func() {
		defer w.clients.Done()
		time.Sleep(delay)
		e, err := udplan.Dial(at.(*udpHost).addr)
		if err != nil {
			body(transport.FailedClient(err))
			return
		}
		defer e.Close()
		e.SetSocketBuffers(w.opt.SocketBuf)
		if w.opt.Batch > 1 {
			e.SetBatch(w.opt.Batch)
		}
		if adv.Active() {
			if err := e.SetAdversary(adv, seed); err != nil {
				body(transport.FailedClient(err))
				return
			}
		}
		body(e)
	}()
}

// crash closes the server's socket under its sessions; after the downtime a
// fresh socket binds the same address and a fresh server from the same
// setup takes over.
func (w *udpWorld) crash(at host, downtime time.Duration) bool {
	h := at.(*udpHost)
	w.mu.Lock()
	defer w.mu.Unlock()
	if h.cur == nil || w.closing {
		return false
	}
	h.cur.Close()
	h.cur = nil
	w.restarts.Add(1)
	time.AfterFunc(downtime, func() {
		defer w.restarts.Done()
		conn, err := net.ListenPacket("udp", h.addr)
		if err != nil {
			w.fail(fmt.Errorf("%s restart: %w", h.name, err))
			return
		}
		w.incarnate(h, conn)
	})
	return true
}

func (w *udpWorld) after(d time.Duration, fn func()) {
	w.timers = append(w.timers, time.AfterFunc(d, fn))
}

// run waits for the clients and for any restart in flight, then closes
// every server's socket — a clean close ends its demux loop once the
// sessions have drained — and reports the first restart or loop that
// failed.
func (w *udpWorld) run() error {
	w.clients.Wait()
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.restarts.Wait()
	for _, t := range w.timers {
		t.Stop()
	}
	for _, h := range w.hosts {
		if h.cur != nil {
			h.cur.Close()
		}
	}
	w.loops.Wait()
	return w.failed
}

func (w *udpWorld) now() time.Duration { return time.Since(w.start) }

func (w *udpWorld) virtual() bool { return false }

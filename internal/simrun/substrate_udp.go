package simrun

import (
	"fmt"
	"net"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/session"
	"blastlan/internal/transport"
	"blastlan/internal/udplan"
)

// FanoutUDP carries the inputs only real sockets have — everything else a
// UDP fan-out run needs is the FanoutScenario the DES runs.
type FanoutUDP struct {
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
	// KeepData assembles each receiver's payload (FanoutReceiverResult.Data)
	// and verifies it byte for byte; otherwise receivers verify by checksum
	// alone and hold nothing — a bench row fanning 16 MB out to 8 receivers
	// must not assemble 128 MB.
	KeepData bool
}

// udpWorld is the UDP binding: every server a udplan.Server on its own
// loopback socket with its demux loop on a goroutine, every client a
// goroutine over its own dialed socket, timers on the wall clock.
type udpWorld struct {
	opt     FanoutUDP
	start   time.Time
	servers []udpServer
	clients sync.WaitGroup
	timers  []*time.Timer
}

type udpServer struct {
	name string
	srv  *udplan.Server
	done chan error // srv.Run's result
}

func newUDPWorld(opt FanoutUDP) *udpWorld {
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
	udplan.SetConnBuffers(conn, w.opt.SocketBuf)
	srv := udplan.NewServer(conn)
	srv.Batch = w.opt.Batch
	srv.LineRate = w.opt.LineRate
	setup(&srv.Server)
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()
	w.servers = append(w.servers, udpServer{name, srv, done})
	return conn.LocalAddr().String(), nil
}

func (w *udpWorld) client(_ string, at host, delay time.Duration, body func(core.Env, func() (core.Env, error))) {
	w.clients.Add(1)
	go func() {
		defer w.clients.Done()
		time.Sleep(delay)
		// A conn dies with its session: every dial closes the one before.
		var cur *udplan.Endpoint
		hangup := func() {
			if cur != nil {
				cur.Close()
				cur = nil
			}
		}
		defer hangup()
		dial := func() (core.Env, error) {
			hangup()
			e, err := udplan.Dial(at.(string))
			if err != nil {
				return nil, err
			}
			e.SetSocketBuffers(w.opt.SocketBuf)
			if w.opt.Batch > 1 {
				e.SetBatch(w.opt.Batch)
			}
			cur = e
			return e, nil
		}
		env, err := dial()
		if err != nil {
			env = transport.FailedClient(err)
		}
		body(env, dial)
	}()
}

func (w *udpWorld) after(d time.Duration, fn func()) {
	w.timers = append(w.timers, time.AfterFunc(d, fn))
}

// run waits for the clients, then closes every server's socket — a clean
// close ends its demux loop once the sessions have drained — and reports
// the first loop that failed.
func (w *udpWorld) run() error {
	w.clients.Wait()
	for _, t := range w.timers {
		t.Stop()
	}
	var first error
	for _, s := range w.servers {
		s.srv.Close()
		if err := <-s.done; err != nil && first == nil {
			first = fmt.Errorf("%s server: %w", s.name, err)
		}
	}
	w.servers = nil
	return first
}

func (w *udpWorld) now() time.Duration { return time.Since(w.start) }

func (w *udpWorld) virtual() bool { return false }

package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/store"
	"blastlan/internal/transport"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// object is one thing a client can pull: its name in the store ("" for the
// seeded generator) and the bytes it must arrive as.
type object struct {
	name string
	want []byte
	sum  uint16
}

// inproc is a set-up of an in-process workload: one udplan.Server in this
// process, serving either the seeded generator or a store directory.
type inproc struct {
	r       *run
	sp      *spec
	srv     *udplan.Server
	srvDone chan error
	addr    string
	st      *store.Store
	objects []object
	picks   []*rand.Rand // one seeded pick stream per client

	tr       atomic.Pointer[tracer] // server-side hooks consult it per request
	stBefore store.Stats
	servedAt int
	bytes    atomic.Int64 // verified payload since the last layers() call
	tier     atomic.Int32 // datapath tier and GRO state the last client endpoint engaged
	gro      atomic.Bool
}

func (in *inproc) setTracer(t *tracer) { in.tr.Store(t) }

// objectSeed derives the payload seed of object i of a run.
func objectSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func openInproc(r *run) (instance, error) {
	sp := r.sp
	in := &inproc{r: r, sp: sp}
	r.note("workload %s seed %d chunk %d window %d streams %d loss %g", sp.name, r.seed, sp.chunk, sp.window, sp.streams, sp.loss)

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	udplan.SetConnBuffers(conn, sp.sockbuf)
	in.addr = conn.LocalAddr().String()
	in.srv = udplan.NewServer(conn)
	in.srv.Concurrency = sp.concurrency
	in.srv.Batch = sp.batch
	in.srv.Done = func(ts udplan.TransferStats) {
		if t := in.tr.Load(); t != nil {
			t.served(ts)
		}
	}

	if sp.files > 0 {
		// A directory of seeded files behind the store.
		sizes := rand.New(rand.NewSource(r.seed))
		for i := 0; i < sp.files; i++ {
			size := logUniform(sizes, i, sp.files, sp.minBytes, sp.maxBytes)
			o := object{name: fmt.Sprintf("f%04d.bin", i), want: core.SeededPayload(objectSeed(r.seed, i), size, sp.chunk)}
			o.sum = core.TransferChecksum(o.want)
			if err := os.WriteFile(filepath.Join(r.dir, o.name), o.want, 0o644); err != nil {
				conn.Close()
				return nil, err
			}
			r.note("%s %d %04x", o.name, size, o.sum)
			in.objects = append(in.objects, o)
		}
		in.st = store.Open(r.dir, store.Options{})
		in.srv.Stat = in.st.StatReq
		in.srv.SourceEnv = func(q wire.Req, env core.Env) (core.ChunkSource, bool) {
			src, ok := in.st.SourceReq(q, env)
			if t := in.tr.Load(); ok && t != nil {
				src = t.wrapSource(q, src)
			}
			return src, ok
		}
	} else {
		// One seeded object, generated chunk by chunk on the serving side
		// and materialised once here to compare against.
		pseed := objectSeed(r.seed, 0)
		o := object{want: core.SeededPayload(pseed, sp.objBytes, sp.chunk)}
		o.sum = core.TransferChecksum(o.want)
		r.note("seeded %d %04x", sp.objBytes, o.sum)
		in.objects = []object{o}
		in.srv.Source = func(q wire.Req) (core.ChunkSource, bool) {
			stream := int(q.StreamBytes())
			if stream != sp.objBytes || int(q.Chunk) != sp.chunk {
				return nil, false
			}
			src := core.OffsetSource(core.SeededSource(pseed, stream, sp.chunk), int(q.OffsetChunks))
			if t := in.tr.Load(); t != nil {
				src = t.wrapSource(q, src)
			}
			return src, true
		}
	}
	for c := 0; c < sp.clients; c++ {
		pick := rand.New(rand.NewSource(r.seed*7919 + int64(c)))
		in.picks = append(in.picks, pick)
		probe := rand.New(rand.NewSource(r.seed*7919 + int64(c)))
		for i := 0; i < 16; i++ {
			r.note("pick %d %d", c, probe.Intn(len(in.objects)))
		}
	}

	in.srvDone = make(chan error, 1)
	go func() { in.srvDone <- in.srv.Run() }()
	return in, nil
}

// logUniform draws file i of n's size, log-uniform on [lo, hi]. The draw is
// stratified — file i falls in the i-th of n equal slices of the log range —
// so every seed's dataset has nearly the same size mix and total, and what
// differs from seed to seed is which file has which size.
func logUniform(rng *rand.Rand, i, n, lo, hi int) int {
	u := (float64(i) + rng.Float64()) / float64(n)
	return int(float64(lo) * math.Exp(u*math.Log(float64(hi)/float64(lo))))
}

func (in *inproc) close() error {
	err := in.srv.Close()
	if rerr := <-in.srvDone; err == nil {
		err = rerr
	}
	if in.st != nil {
		in.st.Close()
	}
	os.RemoveAll(in.r.dir)
	return err
}

func (in *inproc) config(o *object, id uint32) core.Config {
	sp := in.sp
	return core.Config{
		TransferID:     id,
		Bytes:          len(o.want),
		Name:           o.name,
		ChunkSize:      sp.chunk,
		Protocol:       core.Blast,
		Strategy:       sp.strategy,
		Window:         sp.window,
		Controller:     sp.controller,
		RetransTimeout: sp.tr,
		// 4*Tr per attempt: a dead server fails a transfer inside opTimeout.
		MaxAttempts:  int(opTimeout / (4 * sp.tr)),
		Linger:       sp.linger,
		ReceiverIdle: 10 * time.Second,
	}
}

// verifier is the compare-and-discard sink: every chunk is compared with
// the expected payload at its offset, so a wrong byte fails the transfer.
type verifier struct {
	want []byte
	bad  atomic.Int64
}

func (v *verifier) sink(off int, b []byte) {
	if off < 0 || off+len(b) > len(v.want) || !bytes.Equal(b, v.want[off:off+len(b)]) {
		v.bad.Add(1)
	}
}

func (v *verifier) check(o *object, gotBytes int, gotSum uint16) error {
	switch {
	case v.bad.Load() > 0:
		return fmt.Errorf("%d chunks differ from the expected payload", v.bad.Load())
	case gotBytes != len(o.want):
		return fmt.Errorf("delivered %d of %d bytes", gotBytes, len(o.want))
	case gotSum != o.sum:
		return fmt.Errorf("checksum %04x, expected %04x", gotSum, o.sum)
	}
	return nil
}

func (in *inproc) transfer(c, i int, tt *transferTrace) (int64, time.Duration, error) {
	var o *object
	if i < 0 {
		o = &in.objects[(-1-i)%len(in.objects)] // warm-up: every object once, in order
	} else {
		o = &in.objects[in.picks[c].Intn(len(in.objects))]
	}
	t0 := time.Now()
	var err error
	if in.sp.streams > 1 {
		err = in.pullStriped(o, i, tt)
	} else {
		err = in.pull(o, tt)
	}
	if err == nil {
		in.bytes.Add(int64(len(o.want)))
	}
	return int64(len(o.want)), time.Since(t0), err
}

// dial opens and configures one client endpoint the way blastcp does.
func (in *inproc) dial() (*udplan.Endpoint, error) {
	e, err := udplan.Dial(in.addr)
	if err != nil {
		return nil, err
	}
	e.SetSocketBuffers(in.sp.sockbuf)
	e.SetBatch(in.sp.batch)
	return e, nil
}

// pull is one unstriped transfer: Dial, Stat when the object is named,
// Pull, Close. Tracing decorates the endpoint and the sink; the calls made
// are the same either way.
func (in *inproc) pull(o *object, tt *transferTrace) error {
	var e *udplan.Endpoint
	var err error
	tt.timed(spanDial, spanTransfer, func() { e, err = in.dial() })
	if err != nil {
		return err
	}
	in.tier.Store(int32(e.Tier()))
	in.gro.Store(e.GRO())
	var env core.Env = e
	var traced *tracedEnv
	if tt != nil {
		traced = &tracedEnv{Endpoint: e, tt: tt}
		env = traced
	}
	cfg := in.config(o, tt.transferID())
	v := &verifier{want: o.want}
	cfg.Sink = tt.wrapSink(v.sink)
	var res core.RecvResult
	if o.name != "" {
		tt.timed(spanStat, spanTransfer, func() { err = statIs(env, cfg, o) })
		if traced != nil {
			traced.recv, traced.send = calls{}, calls{} // the stat's calls belong to its own span
		}
	}
	if err == nil {
		err = e.ValidateConfig(cfg)
	}
	if err == nil {
		t0, t1 := tt.timed(spanRequest, spanTransfer, func() { res, err = core.Request(env, cfg) })
		if traced != nil {
			in.noteRequest(tt, t0, t1, res)
			traced.done()
		}
	}
	tt.timed(spanClose, spanTransfer, func() { e.Close() })
	if err != nil {
		return err
	}
	return v.check(o, res.Bytes, res.Checksum)
}

// statIs asks the server for the named object's size and checks it.
func statIs(env core.Env, cfg core.Config, o *object) error {
	size, err := core.Stat(env, cfg, o.name)
	if err != nil {
		return fmt.Errorf("stat %s: %w", o.name, err)
	}
	if size != int64(len(o.want)) {
		return fmt.Errorf("stat %s: server says %d bytes, file has %d", o.name, size, len(o.want))
	}
	return nil
}

// noteRequest records what the client saw of one request: time to the first
// byte, the tail after the last new chunk, and the receiver's counters.
func (in *inproc) noteRequest(tt *transferTrace, t0, t1 time.Time, res core.RecvResult) {
	t := tt.t
	if tt.sink.n > 0 {
		t.count("first_byte_us", us(tt.sink.first.Sub(t0)))
		t.count("tail_us", us(t1.Sub(tt.sink.last)))
	}
	t.count("cli.packets", float64(res.DataPackets))
	t.count("cli.dups", float64(res.Duplicates))
	t.count("cli.naks", float64(res.NaksSent))
}

// pullStriped is one striped transfer under the seeded loss adversary. Every
// transfer draws its own adversary seed so a run samples many loss patterns;
// warm-up transfers (i < 0) run loss-free, so set-up time does not depend on
// which of them happened to stall.
func (in *inproc) pullStriped(o *object, i int, tt *transferTrace) error {
	sp := in.sp
	cfg := in.config(o, tt.transferID())
	v := &verifier{want: o.want}
	opts := udplan.StripeOptions{
		Streams:   sp.streams,
		Batch:     sp.batch,
		SocketBuf: sp.sockbuf,
		Sink:      v.sink,
	}
	if i >= 0 {
		opts.Adversary = params.Adversary{Loss: params.LossModel{PNet: sp.loss}}
		opts.AdversarySeed = in.r.seed*1_000_003 + int64(i)*int64(sp.streams)
	}
	if tt == nil {
		res, err := udplan.PullStriped(in.addr, cfg, opts)
		if err != nil {
			return err
		}
		return v.check(o, res.Bytes, res.Checksum)
	}

	// Traced: the same fan-out through session.PullStriped, over a fabric
	// that dials the stripes exactly as udplan's does and decorates them.
	f := &tracedFabric{in: in, tt: tt, opts: opts}
	var res session.StripedResult
	var err error
	t0, t1 := tt.timed(spanRequest, spanTransfer, func() {
		res, err = session.PullStriped(f, cfg, session.StripeOptions{Streams: sp.streams, Sink: tt.wrapSink(v.sink)})
	})
	if err != nil {
		return err
	}
	var merged core.RecvResult
	for _, s := range res.Stripes {
		merged.DataPackets += s.Recv.DataPackets
		merged.Duplicates += s.Recv.Duplicates
		merged.NaksSent += s.Recv.NaksSent
	}
	in.noteRequest(tt, t0, t1, merged)
	return v.check(o, res.Bytes, res.Checksum)
}

// tracedFabric is udplan's stripe fabric with each endpoint decorated.
type tracedFabric struct {
	in   *inproc
	tt   *transferTrace
	opts udplan.StripeOptions
}

func (f *tracedFabric) Fan(n int, body func(i int, c transport.Client) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			e, err := f.in.dial()
			if err == nil && f.opts.Adversary.Active() {
				err = e.SetAdversary(f.opts.Adversary, f.opts.AdversarySeed+int64(i))
			}
			t1 := time.Now()
			if err != nil {
				errs[i] = body(i, transport.FailedClient(err))
				return
			}
			f.tt.t.emit(spanDial, spanRequest, f.tt.id, i, t0, t1, t1.Sub(t0), 1)
			f.in.tier.Store(int32(e.Tier()))
			f.in.gro.Store(e.GRO())
			env := &tracedEnv{Endpoint: e, tt: f.tt, lane: i}
			errs[i] = body(i, env)
			env.done()
			t2 := time.Now()
			e.Close()
			t3 := time.Now()
			f.tt.t.emit(spanClose, spanRequest, f.tt.id, i, t2, t3, t3.Sub(t2), 1)
		}(i)
	}
	wg.Wait()
	return errs
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// layers reports the counters the server side keeps by itself.
func (in *inproc) layers() map[string]float64 {
	m := map[string]float64{"udplan.tier": float64(in.tier.Load()), "udplan.gro": b2f(in.gro.Load())}
	served := in.srv.Served()
	m["session.served"] = float64(served - in.servedAt)
	in.servedAt = served
	if in.st != nil {
		now := in.st.Stats()
		d := store.Stats{
			Hits: now.Hits - in.stBefore.Hits, Misses: now.Misses - in.stBefore.Misses,
			ReadOps: now.ReadOps - in.stBefore.ReadOps, Evictions: now.Evictions - in.stBefore.Evictions,
		}
		in.stBefore = now
		if d.Hits+d.Misses > 0 {
			m["store.hit_ratio"] = float64(d.Hits) / float64(d.Hits+d.Misses)
		}
		bytes := in.bytes.Load()
		m["store.read_ops_per_mb"] = perMB(float64(d.ReadOps), bytes)
		m["store.evictions_per_mb"] = perMB(float64(d.Evictions), bytes)
	}
	in.bytes.Store(0)
	return m
}

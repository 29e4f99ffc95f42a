package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/store"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// The isolated pass: each layer driven alone, with nothing else on the path,
// so its cost per packet or per byte can be set beside the traced numbers.
// Every loop runs for about layerBudget.

const (
	layerBudget = 120 * time.Millisecond
	layerChunk  = 1000 // the data packet every workload uses
)

// perOp runs f(n) with growing n until one call lasts layerBudget and
// returns that call's nanoseconds per operation.
func perOp(f func(n int)) float64 {
	for n := 256; ; n *= 4 {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d >= layerBudget || n >= 1<<28 {
			return float64(d) / float64(n)
		}
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// isolatedLayers measures every isolated per-layer metric. dir is scratch.
func isolatedLayers(dir string) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := map[string]float64{}
	isolatedWire(m)
	m["core.seeded_source_ns_per_byte"] = isolatedSeededSource()
	v, err := isolatedNullEnv()
	if err != nil {
		return nil, fmt.Errorf("null env: %w", err)
	}
	m["core.null_env_ns_per_byte"] = v
	if err := isolatedUDP(m); err != nil {
		return nil, fmt.Errorf("udplan: %w", err)
	}
	if err := isolatedStore(m, dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return m, nil
}

func dataPacket(payload []byte) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Trans: 1, Total: 1 << 16, Payload: payload}
}

func isolatedWire(m map[string]float64) {
	payload := core.SeededPayload(1, layerChunk, layerChunk)
	pkt := dataPacket(payload)
	frame := make([]byte, wire.HeaderSize+layerChunk)
	m["wire.encode_ns_per_pkt"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			pkt.Seq = uint32(i)
			pkt.EncodeInto(frame)
		}
	})
	var got wire.Packet
	m["wire.decode_ns_per_pkt"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			wire.DecodeInto(&got, frame)
		}
	})
	var sum uint16
	m["wire.sum_ns_per_byte"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			sum += wire.Checksum(payload)
		}
	}) / layerChunk
	sinkU16 = sum
}

var sinkU16 uint16 // keeps the checksum loop from being optimised away

func isolatedSeededSource() float64 {
	const chunks = 1 << 16
	src := core.SeededSource(1, chunks*layerChunk, layerChunk)
	dst := make([]byte, layerChunk)
	return perOp(func(n int) {
		for i := 0; i < n; i++ {
			src(i%chunks, dst)
		}
	}) / layerChunk
}

// memEnv is one end of an in-memory core.Env pair: packets cross a channel,
// their payload copied once into a pooled buffer (the engines reuse theirs).
type memEnv struct {
	in, out chan *wire.Packet
	pool    *sync.Pool
	start   time.Time
	held    *wire.Packet // returned by the last Recv; recycled on the next
}

func newMemPair() (a, b *memEnv) {
	ab, ba := make(chan *wire.Packet, 512), make(chan *wire.Packet, 512) // two 128-packet windows and their acks never block
	pool := &sync.Pool{New: func() any { return &wire.Packet{Payload: make([]byte, 0, layerChunk)} }}
	now := time.Now()
	return &memEnv{in: ba, out: ab, pool: pool, start: now}, &memEnv{in: ab, out: ba, pool: pool, start: now}
}

func (e *memEnv) Now() time.Duration             { return time.Since(e.start) }
func (e *memEnv) Compute(time.Duration)          {}
func (e *memEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }

func (e *memEnv) Send(p *wire.Packet) error {
	q := e.pool.Get().(*wire.Packet)
	buf := append(q.Payload[:0], p.Payload...)
	*q = *p
	q.Payload = buf
	e.out <- q
	return nil
}

func (e *memEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if e.held != nil {
		e.pool.Put(e.held)
		e.held = nil
	}
	select {
	case p := <-e.in:
		e.held = p
		return p, nil
	default:
	}
	if timeout == 0 {
		return nil, os.ErrDeadlineExceeded
	}
	if timeout < 0 {
		e.held = <-e.in
		return e.held, nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case p := <-e.in:
		e.held = p
		return p, nil
	case <-t.C:
		return nil, os.ErrDeadlineExceeded
	}
}

// isolatedNullEnv runs the blast sender against the blast receiver with no
// substrate between them: what the core engine costs per byte by itself.
func isolatedNullEnv() (float64, error) {
	const bytes = 16 * mb
	cfg := core.Config{
		TransferID: 1, Bytes: bytes, ChunkSize: layerChunk,
		Protocol: core.Blast, Strategy: core.GoBackN, Window: 128,
		RetransTimeout: 250 * time.Millisecond, Linger: 50 * time.Millisecond, ReceiverIdle: 5 * time.Second,
	}
	send, recv := newMemPair()
	rcfg := cfg
	rcfg.Sink = func(int, []byte) {}
	scfg := cfg
	scfg.Payload = make([]byte, bytes)
	done := make(chan error, 1)
	var got core.RecvResult
	go func() {
		var err error
		got, err = core.RunReceiver(recv, rcfg)
		done <- err
	}()
	t0 := time.Now()
	_, serr := core.RunSender(send, scfg)
	d := time.Since(t0)
	rerr := <-done
	if err := errors.Join(serr, rerr); err != nil {
		return 0, err
	}
	if got.Bytes != bytes {
		return 0, fmt.Errorf("receiver got %d of %d bytes", got.Bytes, bytes)
	}
	return float64(d) / bytes, nil
}

func isolatedUDP(m map[string]float64) error {
	payload := core.SeededPayload(1, layerChunk, layerChunk)
	for _, tier := range []struct {
		name string
		cap  udplan.Tier
	}{
		{"udplan.tx_gso_ns_per_byte", udplan.TierGSO},
		{"udplan.tx_mmsg_ns_per_byte", udplan.TierMmsg},
		{"udplan.tx_writeto_ns_per_byte", udplan.TierWriteTo},
	} {
		// Send + FlushBatch into a socket nobody reads: the transmit side
		// alone, through the kernel's loopback and into a full buffer.
		hole, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			hole.Close()
			return err
		}
		e := udplan.NewEndpoint(conn, hole.LocalAddr())
		e.MaxTier = tier.cap
		e.SetBatch(32)
		pkt := dataPacket(payload)
		var allocs uint64
		var sent int
		var sendErr error
		ns := perOp(func(n int) {
			before := mallocs()
			for i := 0; i < n; i++ {
				pkt.Seq = uint32(i)
				if err := e.Send(pkt); err != nil {
					sendErr = err
				}
			}
			e.FlushBatch()
			allocs, sent = mallocs()-before, n
		})
		e.Close()
		hole.Close()
		if sendErr != nil {
			return sendErr
		}
		m[tier.name] = ns / layerChunk
		if tier.cap == udplan.TierGSO {
			m["udplan.tx_allocs_per_pkt"] = float64(allocs) / float64(sent)
		}
	}

	// Recv draining a socket filled beforehand: the receive side alone.
	rconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	udplan.SetConnBuffers(rconn, 4*mb)
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		rconn.Close()
		return err
	}
	rx := udplan.NewEndpoint(rconn, sconn.LocalAddr())
	rx.SetBatch(32)
	tx := udplan.NewEndpoint(sconn, rconn.LocalAddr())
	tx.SetBatch(32)
	defer rx.Close()
	defer tx.Close()
	const fill = 1536 // 1.5 MB of payload sits well inside a 4 MiB buffer
	pkt := dataPacket(payload)
	var busy time.Duration
	var got int
	for round := 0; round < 24 && busy < layerBudget; round++ {
		for i := 0; i < fill; i++ {
			pkt.Seq = uint32(i)
			if err := tx.Send(pkt); err != nil {
				return err
			}
		}
		if err := tx.FlushBatch(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < fill; i++ {
			if _, err := rx.Recv(100 * time.Millisecond); err != nil {
				break // the kernel dropped the rest of this round
			}
			got++
		}
		busy += time.Since(t0)
	}
	if got == 0 {
		return errors.New("pre-filled socket delivered nothing")
	}
	m["udplan.rx_ns_per_byte"] = float64(busy) / float64(got) / layerChunk
	return nil
}

// isolatedStore drives the store's chunk source directly, at the daemon's
// defaults (256 MiB cache, read-ahead 8) and cli_get's file shape, through
// its three regimes: cold with room in the cache, hot, and cold with the
// cache full so every fill evicts. The files are sparse: the regimes differ
// in what the cache does, not in what the disk returns.
func isolatedStore(m map[string]float64, dir string) error {
	const (
		fileBytes = 8 * mb
		files     = 34 // 32 fill the cache, the next evicts
	)
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	name := func(i int) string { return fmt.Sprintf("f%04d.bin", i) }
	for i := 0; i < files; i++ {
		f, err := os.Create(filepath.Join(data, name(i)))
		if err != nil {
			return err
		}
		err = f.Truncate(fileBytes)
		f.Close()
		if err != nil {
			return err
		}
	}
	st := store.Open(data, store.Options{})
	defer st.Close()
	dst := make([]byte, layerChunk)
	// read pulls the first n bytes of file i through a fresh source.
	read := func(i, n int) (time.Duration, error) {
		src, err := st.Source(name(i), layerChunk, 0, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for seq := 0; seq*layerChunk < n; seq++ {
			src(seq, dst)
		}
		return time.Since(t0), nil
	}
	var cold time.Duration
	for i := 0; i < 32; i++ {
		d, err := read(i, fileBytes)
		if err != nil {
			return err
		}
		cold += d
	}
	m["store.cold_ns_per_byte"] = float64(cold) / (32 * fileBytes)
	hot, err := read(31, fileBytes)
	if err != nil {
		return err
	}
	m["store.hot_ns_per_byte"] = float64(hot) / fileBytes
	const evictBytes = 2 * mb
	evict, err := read(32, evictBytes)
	if err != nil {
		return err
	}
	m["store.evict_ns_per_byte"] = float64(evict) / evictBytes

	// FileSink: the push side's chunk-at-a-time WriteAt.
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	fs := &store.FileSink{Dir: out}
	sink, done, ok := fs.SinkStream(wire.Req{Bytes: fileBytes, Chunk: layerChunk, Push: true})
	if !ok {
		return errors.New("FileSink refused the push")
	}
	t0 := time.Now()
	for off := 0; off < fileBytes; off += layerChunk {
		sink(off, dst[:min(layerChunk, fileBytes-off)])
	}
	done(core.RecvResult{Completed: true, Bytes: fileBytes})
	m["store.filesink_ns_per_byte"] = float64(time.Since(t0)) / fileBytes
	return nil
}

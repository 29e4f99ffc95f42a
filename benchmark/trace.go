package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// The traced pass records spans from outside the program: the benchmark
// wraps the calls it makes into each layer (the client endpoint's Env
// methods, the chunk source and sink it hands the engines, the CLI
// processes it execs) and nothing under internal/ or cmd/ is instrumented.
// One span per layer per transfer: calls into a layer are summed into the
// span's busy time and call count, and the span runs from the first call's
// start to the last call's end. A layer's self time is its span minus the
// busy time of its children.

// span is one layer's share of one transfer.
type span struct {
	Name     string  `json:"name"`
	Transfer int     `json:"transfer"`
	Parent   string  `json:"parent,omitempty"`
	Lane     int     `json:"lane,omitempty"` // stripe index of a striped pull
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	BusyUS   float64 `json:"busy_us"`
	Calls    int     `json:"calls"`
}

// Span names. Client-side spans nest transfer > {dial, request > {recv,
// send, sink}, close}; the server-side serve > source pair joins them by
// transfer id.
const (
	spanTransfer = "transfer"
	spanDial     = "udplan.dial"
	spanStat     = "session.stat"
	spanRequest  = "core.request"
	spanRecv     = "udplan.recv"
	spanSend     = "udplan.send"
	spanSink     = "sink.verify"
	spanClose    = "udplan.close"
	spanServe    = "session.serve"
	spanSource   = "store.source"
	spanExec     = "cmd.blastcp"
	spanReported = "cmd.blastcp.transfer"
	spanServed   = "cmd.blastd.served"
	spanVerify   = "verify.cmp"
)

// maxTraceTransfers caps the transfers whose spans are written out; the
// layer sums still cover every transfer.
const maxTraceTransfers = 400

// calls sums the calls made into one layer during one transfer.
type calls struct {
	first, last time.Time
	busy        time.Duration
	n           int
}

func (c *calls) add(t0, t1 time.Time) {
	if c.n == 0 {
		c.first = t0
	}
	c.last = t1
	c.busy += t1.Sub(t0)
	c.n++
}

// layerSum is one span name's total over the traced phase.
type layerSum struct {
	busy  time.Duration
	calls int
	spans int
}

type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu      sync.Mutex
	spans   []span
	sums    map[string]*layerSum
	counts  map[string]float64 // named counters (packets by type, refusals, ...)
	pending map[string][]*calls
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		sums:    map[string]*layerSum{},
		counts:  map[string]float64{},
		pending: map[string][]*calls{},
	}
}

func (t *tracer) emit(name, parent string, id, lane int, start, end time.Time, busy time.Duration, n int) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sums[name]
	if s == nil {
		s = &layerSum{}
		t.sums[name] = s
	}
	s.busy += busy
	s.calls += n
	s.spans++
	if id <= maxTraceTransfers {
		t.spans = append(t.spans, span{
			Name: name, Transfer: id, Parent: parent, Lane: lane,
			StartUS: us(start.Sub(t.epoch)), EndUS: us(end.Sub(t.epoch)),
			BusyUS: us(busy), Calls: n,
		})
	}
}

func (t *tracer) emitCalls(name, parent string, id, lane int, c *calls) {
	t.emit(name, parent, id, lane, c.first, c.last, c.busy, c.n)
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) sum(name string) layerSum {
	if s := t.sums[name]; s != nil {
		return *s
	}
	return layerSum{}
}

// write dumps the recorded spans.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload  string `json:"workload"`
		Seed      int64  `json:"seed"`
		Transfers int64  `json:"transfers"`
		Spans     []span `json:"spans"`
	}{workload, seed, t.next.Load(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// transferTrace collects one transfer's client-side spans. A nil
// *transferTrace (tracing off) accepts every call and records nothing.
type transferTrace struct {
	t     *tracer
	id    int
	start time.Time
	sink  calls      // first is when the first chunk landed, last when the last one had been consumed
	mu    sync.Mutex // the sink of a striped pull is called from every stripe
}

// begin opens the root span of the next transfer; nil when tracing is off.
func (t *tracer) begin() *transferTrace {
	if t == nil {
		return nil
	}
	return &transferTrace{t: t, id: int(t.next.Add(1)), start: time.Now()}
}

// end closes the root span. op is the transfer's timed duration.
func (tt *transferTrace) end(op time.Duration) {
	if tt == nil {
		return
	}
	tt.t.emit(spanTransfer, "", tt.id, 0, tt.start, tt.start.Add(op), op, 1)
	tt.t.emitCalls(spanSink, spanRequest, tt.id, 0, &tt.sink)
}

// transferID is the wire transfer id: unique per traced transfer, so the
// server's Done hook can name the transfer its spans belong to.
func (tt *transferTrace) transferID() uint32 {
	if tt == nil {
		return 1
	}
	return uint32(tt.id)
}

// timed records a single-call span around f and returns its ends.
func (tt *transferTrace) timed(name, parent string, f func()) (t0, t1 time.Time) {
	if tt == nil {
		f()
		return
	}
	t0 = time.Now()
	f()
	t1 = time.Now()
	tt.t.emit(name, parent, tt.id, 0, t0, t1, t1.Sub(t0), 1)
	return t0, t1
}

// wrapSink times the verifying sink.
func (tt *transferTrace) wrapSink(sink core.ChunkSink) core.ChunkSink {
	if tt == nil {
		return sink
	}
	return func(off int, b []byte) {
		t0 := time.Now()
		sink(off, b)
		t1 := time.Now()
		tt.mu.Lock()
		tt.sink.add(t0, t1)
		tt.mu.Unlock()
	}
}

// tracedEnv decorates a client endpoint: Recv, Send and FlushBatch are
// timed; everything else (ValidateConfig, the PacketReuser, Pacer,
// BatchLimiter and BatchGeometry capabilities, Close) is the embedded
// endpoint's own.
type tracedEnv struct {
	*udplan.Endpoint
	tt      *transferTrace
	lane    int
	recv    calls
	send    calls
	flushes int
	busy    int // BUSY refusals received
}

func (e *tracedEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	t0 := time.Now()
	p, err := e.Endpoint.Recv(timeout)
	e.recv.add(t0, time.Now())
	if err == nil && p.Type == wire.TypeBusy {
		e.busy++
	}
	return p, err
}

func (e *tracedEnv) Send(p *wire.Packet) error {
	t0 := time.Now()
	err := e.Endpoint.Send(p)
	e.send.add(t0, time.Now())
	return err
}

func (e *tracedEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }

func (e *tracedEnv) FlushBatch() error {
	t0 := time.Now()
	err := e.Endpoint.FlushBatch()
	e.send.add(t0, time.Now())
	e.flushes++
	return err
}

// Abort is transport.Client's cross-goroutine cancel. Only a failing
// striped pull calls it, and a failed transfer is already counted.
func (e *tracedEnv) Abort() { e.Endpoint.Close() }

// done emits the endpoint's call spans and counters.
func (e *tracedEnv) done() {
	t := e.tt.t
	t.emitCalls(spanRecv, spanRequest, e.tt.id, e.lane, &e.recv)
	t.emitCalls(spanSend, spanRequest, e.tt.id, e.lane, &e.send)
	t.count("flushes", float64(e.flushes))
	t.count("busy", float64(e.busy))
}

// wrapSource times the chunk source the server's engine reads from. The
// span is parked until the session's Done hook names its transfer.
func (t *tracer) wrapSource(r wire.Req, src core.ChunkSource) core.ChunkSource {
	c := &calls{}
	key := reqKey(r)
	t.mu.Lock()
	t.pending[key] = append(t.pending[key], c)
	t.mu.Unlock()
	return func(seq int, dst []byte) []byte {
		t0 := time.Now()
		b := src(seq, dst)
		c.add(t0, time.Now())
		return b
	}
}

// served is the server's Done hook: it closes the serve span and the source
// span of the same request.
func (t *tracer) served(ts udplan.TransferStats) {
	now := time.Now()
	key := reqKey(ts.Req)
	t.mu.Lock()
	var c *calls
	if q := t.pending[key]; len(q) > 0 {
		c, t.pending[key] = q[0], q[1:]
	}
	t.counts["srv.packets"] += float64(ts.Packets)
	t.counts["srv.retransmits"] += float64(ts.Retransmits)
	t.mu.Unlock()
	id, lane := int(ts.TransferID), 0
	if ts.Req.Total > 0 {
		lane = int(ts.Req.Offset() / ts.Req.Bytes)
	}
	t.emit(spanServe, spanRequest, id, lane, now.Add(-ts.Elapsed), now, ts.Elapsed, 1)
	if c != nil {
		t.emitCalls(spanSource, spanServe, id, lane, c)
	}
}

func reqKey(r wire.Req) string {
	return fmt.Sprintf("%s/%d/%d/%d", r.Name, r.Bytes, r.OffsetChunks, r.Total)
}

// layerMetrics derives the traced per-layer metrics of the in-process
// workloads from the span sums. A layer the workload never entered reads 0.
func (t *tracer) layerMetrics(sp *spec, p phase) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(len(p.durs))
	m := map[string]float64{}
	if n == 0 {
		return m
	}
	mean := func(name string) float64 { return us(t.sum(name).busy) / n }
	req, recv, send, sink := t.sum(spanRequest), t.sum(spanRecv), t.sum(spanSend), t.sum(spanSink)
	src, serve, xfer := t.sum(spanSource), t.sum(spanServe), t.sum(spanTransfer)

	m["udplan.dial_us"] = mean(spanDial)
	m["udplan.recv_ns_per_byte"] = perByte(recv.busy, p.bytes)
	m["udplan.send_ns_per_byte"] = perByte(send.busy, p.bytes)
	m["udplan.recv_calls_per_mb"] = perMB(float64(recv.calls), p.bytes)
	m["udplan.flush_calls_per_mb"] = perMB(t.counts["flushes"], p.bytes)
	m["core.first_byte_us"] = t.counts["first_byte_us"] / n
	m["core.tail_us"] = t.counts["tail_us"] / n
	m["session.stat_rtt_us"] = mean(spanStat)
	m["session.busy_refusals"] = t.counts["busy"]
	m["store.source_ns_per_byte"] = perByte(src.busy, p.bytes)
	if req.spans > 0 {
		// With stripes the lanes' calls overlap in time, so the engine's own
		// share is taken per lane: request time summed over lanes minus the
		// calls made from them.
		lanes := time.Duration(max(sp.streams, 1))
		m["core.client_self_ns_per_byte"] = perByte(req.busy*lanes-recv.busy-send.busy-sink.busy, p.bytes)
	}
	if xfer.busy > 0 {
		m["session.server_elapsed_share"] = float64(serve.busy) / float64(xfer.busy) / float64(max(sp.streams, 1))
	}
	if pk := t.counts["srv.packets"]; pk > 0 {
		m["core.retx_ratio"] = t.counts["srv.retransmits"] / pk
	}
	if pk := t.counts["cli.packets"]; pk > 0 {
		m["core.dup_ratio"] = t.counts["cli.dups"] / pk
	}
	m["core.naks_per_transfer"] = t.counts["cli.naks"] / n

	if sp.name == "bulk_pull" {
		// The outside-in Table 2: the client-side layers of one pull, which
		// must add up to the transfer's wall time.
		ends := t.sum(spanDial).busy + t.sum(spanClose).busy
		layers := ends + recv.busy + send.busy + sink.busy
		if req.spans > 0 {
			layers += req.busy - recv.busy - send.busy - sink.busy // core's own time
		}
		m["table2.dial_close_ns_per_byte"] = perByte(ends, p.bytes)
		m["table2.sink_ns_per_byte"] = perByte(sink.busy, p.bytes)
		m["table2.layer_sum_ns_per_byte"] = perByte(layers, p.bytes)
		m["table2.e2e_ns_per_byte"] = perByte(xfer.busy, p.bytes)
		m["table2.unattributed_pct"] = 100 * float64(xfer.busy-layers) / float64(xfer.busy)
	}
	return m
}

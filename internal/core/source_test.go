package core

import (
	"bytes"
	"os"
	"testing"
	"time"

	"blastlan/internal/wire"
)

// loopEnv is a minimal in-memory Env pair for exercising the engines
// without a substrate package (which would be an import cycle here).
type loopEnv struct {
	in    chan *wire.Packet
	out   chan *wire.Packet
	start time.Time
}

func newLoopEnvPair() (*loopEnv, *loopEnv) {
	ab := make(chan *wire.Packet, 1024)
	ba := make(chan *wire.Packet, 1024)
	now := time.Now()
	return &loopEnv{in: ba, out: ab, start: now}, &loopEnv{in: ab, out: ba, start: now}
}

func (e *loopEnv) Now() time.Duration             { return time.Since(e.start) }
func (e *loopEnv) Compute(time.Duration)          {}
func (e *loopEnv) Send(p *wire.Packet) error      { e.out <- p.Clone(); return nil }
func (e *loopEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }

// loopEnv is a Datapath with nothing to batch: Send clones (so packet reuse
// is safe) and every frame is its own flush. Fakes that model a batching
// substrate embed it and override FlushBatch.
func (e *loopEnv) FlushBatch() error { return nil }

func (e *loopEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if timeout < 0 {
		return <-e.in, nil
	}
	if timeout == 0 {
		select {
		case p := <-e.in:
			return p, nil
		default:
			return nil, os.ErrDeadlineExceeded
		}
	}
	select {
	case p := <-e.in:
		return p, nil
	case <-time.After(timeout):
		return nil, os.ErrDeadlineExceeded
	}
}

func TestSeededSourceDeterministic(t *testing.T) {
	const (
		seed  = int64(77)
		size  = 10_500
		chunk = 1000
	)
	src := SeededSource(seed, size, chunk)
	whole := SeededPayload(seed, size, chunk)
	if len(whole) != size {
		t.Fatalf("payload length %d", len(whole))
	}
	scratch := make([]byte, chunk)
	for seq := 0; seq*chunk < size; seq++ {
		a := append([]byte(nil), src(seq, scratch)...)
		b := src(seq, scratch) // regeneration (a retransmission) must match
		if !bytes.Equal(a, b) {
			t.Fatalf("seq %d: source is not deterministic", seq)
		}
		lo, hi := seq*chunk, seq*chunk+len(a)
		if !bytes.Equal(a, whole[lo:hi]) {
			t.Fatalf("seq %d: source and SeededPayload disagree", seq)
		}
	}
	// Final chunk is the remainder.
	if got := len(src(10, scratch)); got != 500 {
		t.Errorf("final chunk length %d, want 500", got)
	}
	// A different seed yields different bytes.
	if bytes.Equal(whole, SeededPayload(seed+1, size, chunk)) {
		t.Error("seeds do not differentiate the stream")
	}
}

// A Source-driven sender and a Sink-driven receiver on the loopback Env pair
// must agree with the materialised payload and its checksum, without the
// receiver ever assembling Data.
func TestSourceSinkStreaming(t *testing.T) {
	const (
		seed  = int64(5)
		size  = 16_000
		chunk = 1000
	)
	want := SeededPayload(seed, size, chunk)

	got := make([]byte, size)
	cfg := Config{
		TransferID:     3,
		Bytes:          size,
		ChunkSize:      chunk,
		Protocol:       Blast,
		Strategy:       GoBackN,
		RetransTimeout: 500_000_000,
		MaxAttempts:    20,
		Linger:         1,
		ReceiverIdle:   2_000_000_000,
	}
	scfg := cfg
	scfg.Source = SeededSource(seed, size, chunk)
	rcfg := cfg
	rcfg.Sink = func(off int, b []byte) { copy(got[off:], b) }

	a, b := newLoopEnvPair()
	type out struct {
		res RecvResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := RunReceiver(b, rcfg)
		done <- out{r, err}
	}()
	if _, err := RunSender(a, scfg); err != nil {
		t.Fatal(err)
	}
	ro := <-done
	if ro.err != nil {
		t.Fatal(ro.err)
	}
	if !ro.res.Completed || ro.res.Bytes != size {
		t.Fatalf("completed=%v bytes=%d", ro.res.Completed, ro.res.Bytes)
	}
	if ro.res.Data != nil {
		t.Error("sink mode must not assemble Data")
	}
	if !bytes.Equal(got, want) {
		t.Error("streamed bytes differ from SeededPayload")
	}
	if ro.res.Checksum != wire.Checksum(want) {
		t.Errorf("incremental checksum %04x, want %04x", ro.res.Checksum, wire.Checksum(want))
	}
}

// TestSeededChecksumMatchesPayload pins the streaming checksum to the
// materialised one across odd sizes, a short last chunk (which puts later
// chunks at odd offsets when the chunk size is odd) and degenerate chunks.
func TestSeededChecksumMatchesPayload(t *testing.T) {
	for _, chunk := range []int{1, 999, 1000, 1024} {
		for _, size := range []int{1, 7, 999, 1000, 1001, 4097, 65536, 65537, 262144, 300001} {
			if chunk == 1 && size > 5000 {
				continue
			}
			want := TransferChecksum(SeededPayload(int64(size), size, chunk))
			if got := SeededChecksum(int64(size), size, chunk); got != want {
				t.Errorf("size %d chunk %d: streaming sum %#04x, materialised %#04x", size, chunk, got, want)
			}
		}
	}
	if got, want := SeededChecksum(3, 0, 1000), TransferChecksum(nil); got != want {
		t.Errorf("empty transfer: %#04x, want %#04x", got, want)
	}
}

package session

import (
	"bytes"
	"errors"
	"testing"

	"blastlan/internal/wire"
)

func TestBoardCutThrough(t *testing.T) {
	const chunk, n = 100, 10
	payload := make([]byte, chunk*n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	b := NewBoardAt(0, len(payload), chunk, false)
	src, ok := b.SourceReq(wire.Req{Bytes: uint64(len(payload)), Chunk: chunk}, nil)
	if !ok {
		t.Fatal("full-object request refused")
	}
	// A reader asking for chunk 5 blocks until the upstream delivers it —
	// and only it; the tail can still be in flight.
	served := make(chan []byte)
	go func() {
		dst := make([]byte, chunk)
		served <- append([]byte(nil), src(5, dst)...)
	}()
	select {
	case <-served:
		t.Fatal("read completed before the chunk landed")
	default:
	}
	for i := 0; i <= 5; i++ {
		b.Put(i*chunk, payload[i*chunk:(i+1)*chunk])
	}
	if got := <-served; !bytes.Equal(got, payload[5*chunk:6*chunk]) {
		t.Error("served chunk differs from the delivered one")
	}
	if b.Complete() || b.Bytes() != nil {
		t.Error("board complete with chunks still upstream")
	}
	for i := 6; i < n; i++ {
		b.Put(i*chunk, payload[i*chunk:(i+1)*chunk])
	}
	if !b.Complete() || !bytes.Equal(b.Bytes(), payload) {
		t.Error("assembled object differs from the upstream payload")
	}
	// An offset REQ (a resuming child) reads from its frontier: seq 0 of a
	// request offset 3 chunks in is the board's chunk 3.
	rsrc, ok := b.SourceReq(wire.Req{
		Bytes: uint64(len(payload) - 3*chunk), Chunk: chunk,
		OffsetChunks: 3, Total: uint64(len(payload)),
	}, nil)
	if !ok {
		t.Fatal("offset request refused")
	}
	if got := rsrc(0, make([]byte, chunk)); !bytes.Equal(got, payload[3*chunk:4*chunk]) {
		t.Error("offset read served the wrong range")
	}
	// Ranges outside the board are refused, not served.
	if _, ok := b.SourceReq(wire.Req{Bytes: uint64(len(payload)) + 1, Chunk: chunk}, nil); ok {
		t.Error("oversized request accepted")
	}
	if _, ok := b.SourceReq(wire.Req{Bytes: chunk, Chunk: chunk, OffsetChunks: n, Total: uint64(len(payload))}, nil); ok {
		t.Error("out-of-range offset accepted")
	}
}

func TestBoardFailUnblocks(t *testing.T) {
	b := NewBoardAt(0, 1000, 100, false)
	src, _ := b.SourceReq(wire.Req{Bytes: 1000, Chunk: 100}, nil)
	served := make(chan int)
	go func() {
		served <- len(src(9, make([]byte, 100)))
	}()
	b.Fail(errors.New("upstream gave up"))
	if n := <-served; n != 100 {
		t.Errorf("poisoned read served %d bytes, want the zero-filled 100", n)
	}
	if b.Err() == nil {
		t.Error("Err() lost the poisoning error")
	}
}

package main

import (
	"os"

	"blastlan/internal/wire"
)

// sourceRun is how many contiguous file bytes a fileSource reads at once:
// the read-side mirror of store.ChunkFile's write run.
const sourceRun = 256 << 10

// fileSource streams a file to the push engine as a core.ChunkSource without
// ever holding more than one run of it: chunks are served out of a run
// buffer filled by a single ReadAt, and a chunk outside the buffered run (the
// next run, or a retransmission from behind it) re-reads from there. The
// transfer checksum is folded in as chunks go out for the first time — first
// transmissions are in sequence order — so the file is never walked twice.
type fileSource struct {
	f     *os.File
	size  int
	chunk int
	off   int    // file offset of run[0]
	run   []byte // the buffered run
	next  int    // lowest sequence number not yet folded into sum
	sum   wire.SumAcc
	fail  func(error) // a read error ends the push: chunks cannot carry one
}

func newFileSource(f *os.File, size, chunk int, fail func(error)) *fileSource {
	return &fileSource{f: f, size: size, chunk: chunk, run: make([]byte, 0, max(sourceRun, chunk)), fail: fail}
}

// Source is the core.ChunkSource. The returned chunk aliases the run buffer
// and is valid until the next call, which is all the engine asks.
func (s *fileSource) Source(seq int, _ []byte) []byte {
	lo := seq * s.chunk
	hi := min(lo+s.chunk, s.size)
	if lo >= hi {
		return nil
	}
	if lo < s.off || hi > s.off+len(s.run) {
		n := min(cap(s.run), s.size-lo)
		s.off, s.run = lo, s.run[:n]
		// The run never reaches past the size the push announced, so even
		// io.EOF is a failure here: the file shrank under the transfer.
		if _, err := s.f.ReadAt(s.run, int64(lo)); err != nil {
			s.fail(err)
		}
	}
	b := s.run[lo-s.off : hi-s.off]
	if seq == s.next {
		s.sum.AddAt(lo, b)
		s.next++
	}
	return b
}

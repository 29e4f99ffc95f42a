package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// FileSink is the push-side of the daemon's file handling: it streams
// pushed transfers into numbered files under a directory, guarantees the
// per-transfer file is closed exactly once on every outcome, and discards
// partials from aborted pushes (a client that vanished mid-blast, a
// force-closed session at shutdown). The session layer guarantees the
// completion callback fires exactly once per accepted push; everything
// the daemon must do with that guarantee lives here, where it is testable
// without a main().
type FileSink struct {
	// Dir receives transfer-NNNN.bin files. Empty means verify-and-discard:
	// pushes stream into the incremental checksum only.
	Dir string

	// MaxBytes, when positive, rejects pushes larger than this.
	MaxBytes int

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// OnDone, when non-nil, observes every completed callback: the file's
	// path ("" when discarding), the result, and whether the file was kept.
	// Test hook.
	OnDone func(path string, res core.RecvResult, kept bool)

	n atomic.Int64
}

func (fs *FileSink) logf(format string, args ...any) {
	if fs.Logf != nil {
		fs.Logf(format, args...)
	}
}

// SinkStream is the session.Server.SinkStream hook. Degenerate REQs are
// rejected before any resource is created: a push REQ with Bytes==0 or
// Chunk==0 would otherwise reach the engine's chunk arithmetic (the pull
// path has always had this guard; the push path must mirror it).
func (fs *FileSink) SinkStream(r wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
	if r.Bytes == 0 || r.Chunk == 0 {
		fs.logf("store: rejecting degenerate push (bytes=%d chunk=%d)", r.Bytes, r.Chunk)
		return nil, nil, false
	}
	if fs.MaxBytes > 0 && int(r.Bytes) > fs.MaxBytes {
		fs.logf("store: rejecting %d-byte push (limit %d)", r.Bytes, fs.MaxBytes)
		return nil, nil, false
	}
	n := fs.n.Add(1)
	if fs.Dir == "" {
		return func(int, []byte) {}, func(res core.RecvResult) {
			fs.logf("store: verified %d bytes (push #%d), checksum %04x",
				res.Bytes, n, res.Checksum)
			if fs.OnDone != nil {
				fs.OnDone("", res, false)
			}
		}, true
	}
	name := filepath.Join(fs.Dir, fmt.Sprintf("transfer-%04d.bin", n))
	w, err := CreateChunkFile(name)
	if err != nil {
		fs.logf("store: creating %s: %v", name, err)
		return nil, nil, false
	}
	done := func(res core.RecvResult) {
		if cerr := w.Close(); cerr != nil {
			fs.logf("store: writing %s: %v", name, cerr)
		}
		kept := res.Completed
		if !kept {
			// Aborted push: drop the partial file.
			os.Remove(name)
			fs.logf("store: discarded aborted push %s (%d bytes received)", name, res.Bytes)
		} else {
			fs.logf("store: wrote %s (%d bytes, checksum %04x)", name, res.Bytes, res.Checksum)
		}
		if fs.OnDone != nil {
			fs.OnDone(name, res, kept)
		}
	}
	return w.Sink, done, true
}

// chunkRun is how many contiguous bytes a ChunkFile gathers before it
// writes: the disk economy of the read side applied to the write side.
const chunkRun = 256 << 10

// ChunkFile is a file being filled by a core.ChunkSink. Transfers deliver
// mostly in order, a packet payload at a time; ChunkFile buffers the
// contiguous in-order run and issues one WriteAt per run — flushed when a
// delivery lands elsewhere (a repaired hole, another stripe), when the run
// is full, and at Close — instead of one per chunk. Not safe for
// concurrent use (the engines and core.StripeMerger serialise deliveries).
type ChunkFile struct {
	f   *os.File
	off int64  // file offset of run[0]
	run []byte // contiguous bytes not yet written
	err error  // first write error; later deliveries are dropped
}

// CreateChunkFile creates (or truncates) the named file.
func CreateChunkFile(name string) (*ChunkFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &ChunkFile{f: f, run: make([]byte, 0, chunkRun)}, nil
}

// Sink is the core.ChunkSink: b belongs at byte offset off of the file.
func (w *ChunkFile) Sink(off int, b []byte) {
	if int64(off) != w.off+int64(len(w.run)) || len(w.run)+len(b) > chunkRun {
		w.flush()
		w.off = int64(off)
	}
	w.run = append(w.run, b...)
}

func (w *ChunkFile) flush() {
	if len(w.run) > 0 && w.err == nil {
		_, w.err = w.f.WriteAt(w.run, w.off)
	}
	w.run = w.run[:0]
}

// Close writes what is still buffered and closes the file, reporting the
// first error of the file's whole life.
func (w *ChunkFile) Close() error {
	w.flush()
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}

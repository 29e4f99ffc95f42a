package store

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"

	"blastlan/internal/core"
	"blastlan/internal/disk"
)

// FS is the store's backing filesystem: the only thing the cache and
// read-ahead machinery know about where bytes come from. Two
// implementations matter — DirFS over a real directory for the daemon, and
// SimFS over seeded content with a modelled disk for the DES, where every
// read charges the serving host's virtual clock. That split is what makes
// the cache's behaviour (hit fan-out, eviction, read-ahead economy)
// testable deterministically.
type FS interface {
	// Open resolves a client-supplied object name. Implementations must
	// treat the name as hostile input (see DirFS).
	Open(name string) (File, error)
}

// File is one open object.
type File interface {
	// Size is the object's length in bytes, fixed for the file's lifetime.
	Size() int64

	// ReadAt fills p from offset off, exactly len(p) bytes unless the read
	// fails. env, when non-nil, is charged the read's cost on substrates
	// with modelled disks (SimFS spends virtual time via env.Compute);
	// real files ignore it — the kernel's clock charges itself.
	ReadAt(env core.Env, p []byte, off int64) (int, error)

	Close() error
}

// DirFS serves files from a directory root. Names use slash-separated
// io/fs syntax and are validated with fs.ValidPath, so "../", absolute
// paths and empty names never escape the root.
type DirFS struct{ root string }

// NewDirFS returns a DirFS rooted at dir.
func NewDirFS(dir string) *DirFS { return &DirFS{root: dir} }

func (d *DirFS) Open(name string) (File, error) {
	if !iofs.ValidPath(name) || name == "." {
		return nil, fmt.Errorf("store: invalid object name %q", name)
	}
	f, err := os.Open(filepath.Join(d.root, filepath.FromSlash(name)))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.IsDir() {
		f.Close()
		return nil, fmt.Errorf("store: %q is a directory", name)
	}
	return &osFile{f: f, size: st.Size()}, nil
}

type osFile struct {
	f    *os.File
	size int64
}

func (o *osFile) Size() int64 { return o.size }

func (o *osFile) ReadAt(_ core.Env, p []byte, off int64) (int, error) {
	n, err := o.f.ReadAt(p, off)
	if err == io.EOF && n == len(p) {
		err = nil // exact read ending at EOF
	}
	return n, err
}

func (o *osFile) Close() error { return o.f.Close() }

// SimFS is the DES filesystem: named objects with deterministic seeded
// content, read through a disk.Geometry timing model. A read continuing
// where the previous one ended pays the model's page-boundary cost (half a
// rotation plus transfer — the same accounting as disk.FileReadTime);
// anything else pays a full random access. The store reads a cold file
// one extent at a time, in order, so it pays exactly
// FileReadTime(size, ExtentBytes): the extent IS the large page of the
// economy the paper's introduction argues for, applied to the server's
// disk.
type SimFS struct {
	geo disk.Geometry

	mu    sync.Mutex
	files map[string]*simFile
}

// NewSimFS returns an empty simulated filesystem on the given disk.
func NewSimFS(g disk.Geometry) *SimFS {
	return &SimFS{geo: g, files: make(map[string]*simFile)}
}

// Add creates (or replaces) a simulated file with core.SeededPayload
// content, so clients can verify pulled bytes against the same generator.
func (s *SimFS) Add(name string, seed int64, size int) {
	content := core.SeededPayload(seed, size, 1024)
	s.mu.Lock()
	s.files[name] = &simFile{fs: s, content: content, lastEnd: -1}
	s.mu.Unlock()
}

func (s *SimFS) Open(name string) (File, error) {
	s.mu.Lock()
	f := s.files[name]
	s.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("store: no such simulated object %q", name)
	}
	return f, nil
}

type simFile struct {
	fs      *SimFS
	content []byte
	lastEnd int64 // end offset of the previous read; -1 = never read
}

func (f *simFile) Size() int64 { return int64(len(f.content)) }

func (f *simFile) ReadAt(env core.Env, p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(f.content)) {
		return 0, fmt.Errorf("store: simulated read at %d outside %d-byte object", off, len(f.content))
	}
	n := copy(p, f.content[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	if env != nil {
		g := f.fs.geo
		d := g.AccessTime(n)
		if off == f.lastEnd {
			// Sequential continuation: the head is past the data — pay the
			// page-boundary cost, not a seek (disk.FileReadTime's model).
			d = g.RotationPeriod/2 + g.SequentialTime(n)
		}
		env.Compute(d)
	}
	f.lastEnd = off + int64(n)
	return n, nil
}

func (f *simFile) Close() error { return nil }

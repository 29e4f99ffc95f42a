package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"blastlan/internal/core"
)

// The hot-path budget: a warm hit must cost close to what the seeded
// generator costs (the in-memory source the daemon's anonymous pulls use),
// or the cache would tax every warm transfer. Compare:
//
//	go test -bench 'Source' -benchtime 2s ./internal/store
func BenchmarkSeededSource(b *testing.B) {
	const chunk = 1000
	n := (64 << 20) / chunk
	src := core.SeededSource(1, 64<<20, chunk)
	dst := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src(i%n, dst)
	}
}

func BenchmarkHotSource(b *testing.B) {
	dir := b.TempDir()
	const chunk = 1000
	payload := core.SeededPayload(1, 64<<20, chunk)
	if err := os.WriteFile(filepath.Join(dir, "f"), payload, 0o644); err != nil {
		b.Fatal(err)
	}
	st := Open(dir, Options{})
	defer st.Close()
	src, err := st.Source("f", chunk, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	n := (64 << 20) / chunk
	dst := make([]byte, chunk)
	for i := 0; i < n; i++ {
		src(i, dst) // warm the cache
	}
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src(i%n, dst)
	}
}

// sparseFile creates a size-byte hole under dir: the cold and eviction
// benchmarks measure what the cache does, not what the disk returns.
func sparseFile(b *testing.B, dir, name string, size int64) {
	b.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkColdSource is the miss path with room in the cache (one ReadAt
// per extent, no eviction): the benchmark ExtentBytes was chosen by.
func BenchmarkColdSource(b *testing.B) {
	dir := b.TempDir()
	const chunk, size = 1000, 64 << 20
	sparseFile(b, dir, "f", size)
	dst := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		st := Open(dir, Options{}) // a fresh, empty cache per pass over the file
		src, err := st.Source("f", chunk, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for seq := 0; seq < size/chunk && i < b.N; seq, i = seq+1, i+1 {
			src(seq, dst)
		}
		st.Close()
	}
}

// BenchmarkEvictSource is the miss path with the cache full — every
// extent read evicts another — at two cache sizes: ns/op must not grow
// with the cache (compare BenchmarkHotSource for the hit path).
func BenchmarkEvictSource(b *testing.B) {
	for _, cacheMiB := range []int64{16, 128} {
		b.Run(fmt.Sprintf("cache=%dMiB", cacheMiB), func(b *testing.B) {
			dir := b.TempDir()
			const chunk = 1000
			size := (cacheMiB + 16) << 20 // a cyclic scan of more than the cache never hits
			sparseFile(b, dir, "f", size)
			st := Open(dir, Options{CacheBytes: cacheMiB << 20})
			defer st.Close()
			src, err := st.Source("f", chunk, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			n := int(size / chunk)
			dst := make([]byte, chunk)
			for i := 0; i < n; i++ {
				src(i, dst) // fill the cache
			}
			b.SetBytes(chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src(i%n, dst)
			}
		})
	}
}

// BenchmarkEvictSourceParallel is BenchmarkEvictSource from every CPU at
// once, one file per goroutine behind one store: the cache mutex is taken
// once per extent miss, so this is where sharding it would have to pay.
func BenchmarkEvictSourceParallel(b *testing.B) {
	dir := b.TempDir()
	const chunk, cacheMiB, fileMiB = 1000, 32, 48
	st := Open(dir, Options{CacheBytes: cacheMiB << 20})
	defer st.Close()
	var files atomic.Int32
	b.SetBytes(chunk)
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("f%d", files.Add(1))
		sparseFile(b, dir, name, fileMiB<<20)
		src, err := st.Source(name, chunk, 0, nil)
		if err != nil {
			b.Error(err)
			return
		}
		dst := make([]byte, chunk)
		for i := 0; pb.Next(); i++ {
			src(i%(fileMiB<<20/chunk), dst)
		}
	})
}

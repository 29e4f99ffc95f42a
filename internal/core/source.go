package core

import (
	"encoding/binary"

	"blastlan/internal/wire"
)

// SeededSource returns a ChunkSource generating deterministic pseudo-random
// transfer bytes: packet seq's chunk is derived from (seed, seq) alone, so
// retransmissions regenerate identical payloads and a daemon can serve an
// arbitrarily large pull without ever materialising it. The generator is a
// per-chunk splitmix64 stream and performs no allocation when dst has
// capacity for the chunk.
func SeededSource(seed int64, bytes, chunk int) ChunkSource {
	return func(seq int, dst []byte) []byte {
		n := chunk
		if rem := bytes - seq*chunk; rem < n {
			n = rem
		}
		if n < 0 {
			n = 0
		}
		if cap(dst) < n {
			dst = make([]byte, n)
		}
		dst = dst[:n]
		fillChunk(uint64(seed)+splitmixGamma*uint64(seq+1), dst)
		return dst
	}
}

// SeededReqSource resolves a pull REQ against the size-seeded logical
// stream every test daemon and blastd serve: the stream is StreamBytes long
// and seeded by that length, and a stripe or resume REQ (OffsetChunks) reads
// from its own offset into it, so a client that knows only the object's size
// can verify any range. Degenerate REQs (no bytes, no chunk size) are
// refused.
func SeededReqSource(r wire.Req) (ChunkSource, bool) {
	if r.Bytes == 0 || r.Chunk == 0 {
		return nil, false
	}
	stream := int(r.StreamBytes())
	return OffsetSource(SeededSource(int64(stream), stream, int(r.Chunk)), int(r.OffsetChunks)), true
}

// SeededPayload materialises the full transfer a SeededSource generates —
// the verification-side convenience: a client that knows the seed can check
// a received transfer byte for byte (or just compare checksums) without the
// server ever buffering it.
func SeededPayload(seed int64, bytes, chunk int) []byte {
	src := SeededSource(seed, bytes, chunk)
	out := make([]byte, bytes)
	for seq, off := 0, 0; off < bytes; seq++ {
		off += copy(out[off:], src(seq, out[off:]))
	}
	return out
}

// SeededChecksum is TransferChecksum(SeededPayload(seed, bytes, chunk))
// without the payload: each chunk is generated into one buffer and folded in
// at its offset.
func SeededChecksum(seed int64, bytes, chunk int) uint16 {
	src := SeededSource(seed, bytes, chunk)
	buf := make([]byte, 0, chunk)
	var acc wire.SumAcc
	for seq, off := 0, 0; off < bytes; seq++ {
		b := src(seq, buf)
		acc.AddAt(off, b)
		off += len(b)
	}
	return acc.Sum16()
}

// splitmix64's state increment and output multipliers.
const (
	splitmixGamma = 0x9e3779b97f4a7c15
	splitmixMul1  = 0xbf58476d1ce4e5b9
	splitmixMul2  = 0x94d049bb133111eb
)

// fillChunk fills dst from a splitmix64 stream starting at state: word i
// (from 0) is splitmix(state + (i+1)·γ).
//
// A word depends on its index alone, not on the word before it, so the main
// loop computes four at once, stage by stage. Their multiply chains are
// independent and overlap in the pipeline, where a one-word loop waits on
// each chain in turn; the bytes are the same (TestSeededGolden pins them).
func fillChunk(state uint64, dst []byte) {
	for len(dst) >= 32 {
		a := state + splitmixGamma
		b := a + splitmixGamma
		c := b + splitmixGamma
		d := c + splitmixGamma
		state = d
		a, b, c, d = (a^a>>30)*splitmixMul1, (b^b>>30)*splitmixMul1, (c^c>>30)*splitmixMul1, (d^d>>30)*splitmixMul1
		a, b, c, d = (a^a>>27)*splitmixMul2, (b^b>>27)*splitmixMul2, (c^c>>27)*splitmixMul2, (d^d>>27)*splitmixMul2
		binary.LittleEndian.PutUint64(dst[0:8], a^a>>31)
		binary.LittleEndian.PutUint64(dst[8:16], b^b>>31)
		binary.LittleEndian.PutUint64(dst[16:24], c^c>>31)
		binary.LittleEndian.PutUint64(dst[24:32], d^d>>31)
		dst = dst[32:]
	}
	for len(dst) >= 8 {
		state += splitmixGamma
		binary.LittleEndian.PutUint64(dst, splitmix(state))
		dst = dst[8:]
	}
	if len(dst) > 0 {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], splitmix(state+splitmixGamma))
		copy(dst, word[:])
	}
}

// splitmix is splitmix64's output function.
func splitmix(z uint64) uint64 {
	z = (z ^ z>>30) * splitmixMul1
	z = (z ^ z>>27) * splitmixMul2
	return z ^ z>>31
}

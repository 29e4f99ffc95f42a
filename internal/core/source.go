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
		fillChunk(uint64(seed)+0x9e3779b97f4a7c15*uint64(seq+1), dst)
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

// fillChunk fills dst from a splitmix64 stream starting at state.
func fillChunk(state uint64, dst []byte) {
	var word [8]byte
	for len(dst) > 0 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		if len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, z)
			dst = dst[8:]
			continue
		}
		binary.LittleEndian.PutUint64(word[:], z)
		copy(dst, word[:])
		return
	}
}

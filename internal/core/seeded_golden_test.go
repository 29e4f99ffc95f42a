package core

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// TestSeededGolden pins the seeded generator's bytes, not only its
// agreement with itself: every seeded verification and blastd's anonymous
// pulls regenerate this stream on both ends, so a generator that changed
// its output would still pass every self-comparison while breaking every
// peer built before the change. Each row is the FNV-64a digest of
// SeededPayload and the SeededChecksum value, across sizes that end
// mid-word and chunks that put words across chunk boundaries.
func TestSeededGolden(t *testing.T) {
	for _, g := range []struct {
		seed        int64
		size, chunk int
		fnv         uint64
		sum         uint16
	}{
		{1, 0, 1, 0xcbf29ce484222325, 0xffff},
		{1, 0, 7, 0xcbf29ce484222325, 0xffff},
		{1, 0, 1000, 0xcbf29ce484222325, 0xffff},
		{1, 0, 1400, 0xcbf29ce484222325, 0xffff},
		{1, 1, 1, 0xaf63da4c8601e926, 0x98ff},
		{1, 1, 7, 0xaf63da4c8601e926, 0x98ff},
		{1, 1, 1000, 0xaf63da4c8601e926, 0x98ff},
		{1, 1, 1400, 0xaf63da4c8601e926, 0x98ff},
		{1, 7, 1, 0xf2067837e68daede, 0x9742},
		{1, 7, 7, 0x9c0e6d945d99de6a, 0x7d1f},
		{1, 7, 1000, 0x9c0e6d945d99de6a, 0x7d1f},
		{1, 7, 1400, 0x9c0e6d945d99de6a, 0x7d1f},
		{1, 8, 1, 0xceacbcfcc2bf7282, 0x969a},
		{1, 8, 7, 0xc662671b0c74925c, 0x7cc1},
		{1, 8, 1000, 0xc663071b0c75a23c, 0x7c61},
		{1, 8, 1400, 0xc663071b0c75a23c, 0x7c61},
		{1, 31, 1, 0x06ad60efed7a8450, 0x10e7},
		{1, 31, 7, 0x711ea5a5ab45bca0, 0x777c},
		{1, 31, 1000, 0x665ecddd3dcf6536, 0x78e9},
		{1, 31, 1400, 0x665ecddd3dcf6536, 0x78e9},
		{1, 33, 1, 0xee0082f5b45b66c1, 0xf479},
		{1, 33, 7, 0x93a0c3f2bc697b9d, 0x77eb},
		{1, 33, 1000, 0xe3a36bdc979253df, 0xf877},
		{1, 33, 1400, 0xe3a36bdc979253df, 0xf877},
		{1, 1000, 1, 0x42ec08563674604e, 0xa131},
		{1, 1000, 7, 0x1ad87892ebddd8c3, 0x1aac},
		{1, 1000, 1000, 0x8e71895b85d8fd79, 0x5737},
		{1, 1000, 1400, 0x8e71895b85d8fd79, 0x5737},
		{1, 1001, 1, 0x2b72fa7e87c08170, 0x0331},
		{1, 1001, 7, 0x7bada0a6c9f74c8d, 0x9eab},
		{1, 1001, 1000, 0xe3e98d846fb62945, 0xf936},
		{1, 1001, 1400, 0xe3ea4a846fb76a6c, 0xba36},
		{1, 65537, 1, 0xb5422a8eccaf378f, 0x41e9},
		{1, 65537, 7, 0x221c82c851998ae5, 0x4378},
		{1, 65537, 1000, 0xe3e9969ed04347ee, 0xeea8},
		{1, 65537, 1400, 0x98bf8ce43e36edf7, 0x9d65},
		{0, 65537, 1400, 0x45072d02d314c4ea, 0x3e0f},
		{-1, 65537, 1400, 0x935af143147463ef, 0x6c2a},
		{9223372036854775807, 65537, 1400, 0x07def7714d4bbbec, 0x6ad1},
		{24301, 65537, 1400, 0xab90ac9f7c98762a, 0x6836},
	} {
		h := fnv.New64a()
		h.Write(SeededPayload(g.seed, g.size, g.chunk))
		if got := h.Sum64(); got != g.fnv {
			t.Errorf("seed %d size %d chunk %d: payload digest %#016x, want %#016x", g.seed, g.size, g.chunk, got, g.fnv)
		}
		if got := SeededChecksum(g.seed, g.size, g.chunk); got != g.sum {
			t.Errorf("seed %d size %d chunk %d: checksum %#04x, want %#04x", g.seed, g.size, g.chunk, got, g.sum)
		}
	}
}

// TestFillChunkMatchesSerialLoop checks the four-word loop against the
// textbook one-word splitmix64 loop at every length up to a few frames, so
// every tail length and every chunk size on the wire is covered.
func TestFillChunkMatchesSerialLoop(t *testing.T) {
	serial := func(state uint64, dst []byte) {
		for i := range dst {
			if i%8 == 0 {
				state += splitmixGamma
			}
			dst[i] = byte(splitmix(state) >> (8 * (i % 8)))
		}
	}
	got, want := make([]byte, 2100), make([]byte, 2100)
	for n := 0; n < len(got); n++ {
		state := uint64(n) * 0x2545f4914f6cdd1d
		fillChunk(state, got[:n])
		serial(state, want[:n])
		if !bytes.Equal(got[:n], want[:n]) {
			t.Fatalf("length %d: fillChunk differs from the serial loop", n)
		}
	}
}

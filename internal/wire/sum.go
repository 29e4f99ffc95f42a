package wire

// SumAcc accumulates the Internet checksum of a byte stream delivered as
// chunks in any order — the running "overall software checksum" a streaming
// receiver keeps so a multi-gigabyte transfer never has to be buffered whole.
//
// The RFC 1071 one's-complement sum is commutative and associative over
// 16-bit words, so a chunk's contribution depends only on its bytes and the
// parity of its byte offset in the stream: a chunk starting at an odd offset
// contributes its standalone sum with the two bytes of every word swapped
// (the classic byte-order/alignment identity). AddAt exploits that, which is
// what lets a blast receiver — whose packets arrive in any order — fold each
// chunk in as it lands. Chunks must tile the stream exactly once; Sum16 then
// equals Checksum over the concatenated bytes.
//
// The zero value is ready to use.
type SumAcc struct {
	sum uint64
}

// AddAt folds in one chunk of the stream located at byte offset off.
func (a *SumAcc) AddAt(off int, b []byte) { a.AddSumAt(off, sum16(b)) }

// AddSumAt is AddAt for a chunk whose one's-complement sum is already known
// (Packet.PayloadSum): the bytes are not read again.
func (a *SumAcc) AddSumAt(off int, sum uint16) {
	if off&1 == 1 {
		sum = sum<<8 | sum>>8 // odd offset: every byte swaps word halves
	}
	a.sum += uint64(sum)
}

// AddChecksumAt folds in the finished Internet checksum of a contiguous
// byte range starting at stream offset off — the zero-copy, zero-rescan way
// to merge a stripe's already-computed whole-range checksum (for example
// RecvResult.Checksum, accumulated in the stripe's own coordinates) into
// the stream's: un-complement back to the raw folded sum, swap bytes if the
// range starts at an odd stream offset (AddSumAt). Each range must tile
// the stream exactly once, like AddAt chunks.
func (a *SumAcc) AddChecksumAt(off int, checksum uint16) { a.AddSumAt(off, ^checksum) }

// Sum16 returns the Internet checksum of the stream accumulated so far.
func (a *SumAcc) Sum16() uint16 {
	return ^fold16(a.sum)
}

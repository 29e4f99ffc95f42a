package wire

import "testing"

var benchSum uint16 // keeps the measured calls from being optimised away

// BenchmarkChecksum1K times the RFC 1071 kernel on the data packet every
// workload uses: one 1000-byte payload.
func BenchmarkChecksum1K(b *testing.B) {
	buf := make([]byte, 1000)
	for i := range buf {
		buf[i] = byte(i*131 + 17)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSum += Checksum(buf)
	}
}

// BenchmarkCodecRoundTrip1K times EncodeInto + DecodeInto of that packet.
func BenchmarkCodecRoundTrip1K(b *testing.B) {
	pkt := &Packet{Type: TypeData, Trans: 7, Total: 1 << 16, Payload: make([]byte, 1000)}
	frame := make([]byte, HeaderSize+1000)
	var dec Packet
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Seq = uint32(i)
		n, _ := pkt.EncodeInto(frame)
		if err := DecodeInto(&dec, frame[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

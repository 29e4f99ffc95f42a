//go:build linux && (amd64 || arm64)

package udplan

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// sendGSO's run splitting must reproduce the exact datagram sequence the
// frame ring holds, whatever the size mix: equal runs ride one superbuffer,
// a shorter frame may only close a run, and a larger one starts a new run.
// The receiver here has no GRO, so the kernel segments every superbuffer
// back into individual datagrams — what arrives is exactly what a plain
// WriteTo loop would have sent.
func TestSendGSORunSplitting(t *testing.T) {
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer tx.Close()
	rx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer rx.Close()
	raw := rawConnOf(tx)
	if !probeGSO(raw) {
		t.Skip("UDP_SEGMENT unsupported on this kernel")
	}

	// equal run | shorter closes it | new equal run | single | trailing short
	sizes := []int{1000, 1000, 1000, 400, 700, 700, 1200, 300}
	frames := make([][]byte, len(sizes))
	lens := make([]int, len(sizes))
	for i, n := range sizes {
		frames[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		lens[i] = n
	}
	var gs gsoSender
	handled, err := sendGSO(raw, &gs, rx.LocalAddr(), frames, lens, len(frames))
	if !handled {
		t.Fatal("sendGSO fell back with a UDP peer on a probed socket")
	}
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	rx.(*net.UDPConn).SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := range frames {
		n, _, err := rx.ReadFrom(buf)
		if err != nil {
			t.Fatalf("datagram %d never arrived: %v", i, err)
		}
		if n != lens[i] || !bytes.Equal(buf[:n], frames[i]) {
			t.Fatalf("datagram %d: got %d bytes (first %q), want %d of %q", i, n, buf[0], lens[i], frames[i][0])
		}
	}
}

// A GRO-coalesced receive must split back into the original frames: the
// transmit side sends one GSO superbuffer, take returns it as one message
// with its gso_size cmsg and its sender's key, and splitSeg walks it in
// segment-sized frames with the final shorter segment intact.
func TestGRODeliverySplitsSegments(t *testing.T) {
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer tx.Close()
	rx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer rx.Close()
	txRaw, rxRaw := rawConnOf(tx), rawConnOf(rx)
	if !probeGSO(txRaw) {
		t.Skip("UDP_SEGMENT unsupported on this kernel")
	}
	if !setGRO(rxRaw, true) {
		t.Skip("UDP_GRO unsupported on this kernel")
	}

	sizes := []int{1024, 1024, 1024, 512} // equal segments + shorter tail
	frames := make([][]byte, len(sizes))
	lens := make([]int, len(sizes))
	for i, n := range sizes {
		frames[i] = bytes.Repeat([]byte{byte('A' + i)}, n)
		lens[i] = n
	}
	var gs gsoSender
	if handled, err := sendGSO(txRaw, &gs, rx.LocalAddr(), frames, lens, len(frames)); !handled || err != nil {
		t.Fatalf("sendGSO: handled=%v err=%v", handled, err)
	}

	ring := newRxBatch(4, MaxDatagram, true)
	rx.(*net.UDPConn).SetReadDeadline(time.Now().Add(2 * time.Second))
	var key, want [addrKeyLen]byte
	keyFromUDP(&want, tx.LocalAddr().(*net.UDPAddr))
	var msg []byte
	var seg, off int
	for i := range frames {
		if off >= len(msg) {
			slot, err := ring.take(rx, rxRaw, &key)
			if err != nil {
				t.Fatalf("frame %d: take: %v", i, err)
			}
			if key != want {
				t.Fatalf("frame %d: source key %x, want %x", i, key, want)
			}
			msg, seg = ring.msg(slot)
			off = 0
		}
		if data := splitSeg(msg, seg, &off); !bytes.Equal(data, frames[i]) {
			t.Fatalf("frame %d: got %d bytes, want %d of %q", i, len(data), lens[i], frames[i][0])
		}
	}
}

// parseGROSize must find the gso_size cmsg wherever it sits in the control
// buffer and tolerate both the kernel's int and a two-byte encoding.
func TestParseGROSize(t *testing.T) {
	mk := func(level, typ int32, data []byte) []byte {
		buf := make([]byte, syscall.CmsgSpace(len(data)))
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[0]))
		h.Level = level
		h.Type = typ
		h.SetLen(syscall.CmsgLen(len(data)))
		copy(buf[syscall.CmsgLen(0):], data)
		return buf
	}
	i32 := func(v int32) []byte {
		b := make([]byte, 4)
		*(*int32)(unsafe.Pointer(&b[0])) = v
		return b
	}
	if got := parseGROSize(mk(solUDP, udpGRO, i32(1472))); got != 1472 {
		t.Errorf("int32 cmsg: got %d", got)
	}
	u16 := make([]byte, 2)
	*(*uint16)(unsafe.Pointer(&u16[0])) = 999
	if got := parseGROSize(mk(solUDP, udpGRO, u16)); got != 999 {
		t.Errorf("uint16 cmsg: got %d", got)
	}
	// gso_size behind an unrelated cmsg
	other := mk(int32(syscall.SOL_SOCKET), int32(syscall.SO_TIMESTAMP), i32(0))
	if got := parseGROSize(append(other, mk(solUDP, udpGRO, i32(555))...)); got != 555 {
		t.Errorf("second cmsg: got %d", got)
	}
	if got := parseGROSize(nil); got != 0 {
		t.Errorf("empty control: got %d", got)
	}
	if got := parseGROSize(mk(int32(syscall.SOL_SOCKET), int32(syscall.SO_TIMESTAMP), i32(42))); got != 0 {
		t.Errorf("foreign cmsg only: got %d", got)
	}
}

//go:build linux && (amd64 || arm64)

package udplan

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// The raw fast path must actually take effect on this platform: sendBatch
// reports handled (no silent WriteTo fallback), one fill takes every queued
// datagram in one recvmmsg, take hands them out in order, and the
// raw-sockaddr key matches the net.UDPAddr key for the same source — the
// invariant that keeps one client from becoming two sessions, and an
// Endpoint from skipping its own peer.
func TestMmsgFastPath(t *testing.T) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer a.Close()
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer b.Close()

	ea := NewEndpoint(a, b.LocalAddr())
	if ea.raw == nil {
		t.Fatal("UDP socket exposed no raw conn")
	}
	frames := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	lens := []int{5, 6, 5}
	var ms mmsgSender
	handled, err := sendBatch(ea.raw, &ms, ea.peer, frames, lens, 3)
	if !handled {
		t.Fatal("sendBatch fell back on linux")
	}
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := range frames {
		n, _, err := b.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != string(frames[i][:lens[i]]) {
			t.Fatalf("frame %d: got %q want %q", i, buf[:n], frames[i][:lens[i]])
		}
	}

	// One recvmmsg takes every queued datagram + raw-name key equivalence.
	for i := 0; i < 3; i++ {
		if _, err := a.WriteTo([]byte{byte(i), 9, 9}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	rx := newRxBatch(4, 128, false)
	var fromRaw, fromUDP [addrKeyLen]byte
	keyFromUDP(&fromUDP, a.LocalAddr().(*net.UDPAddr))
	for i := 0; i < 3; i++ {
		slot, err := rx.take(b, rawConnOf(b), &fromRaw)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && rx.count != 3 {
			t.Fatalf("one fill took %d datagrams, want all 3", rx.count)
		}
		if msg, seg := rx.msg(slot); seg != 0 || !bytes.Equal(msg, []byte{byte(i), 9, 9}) {
			t.Fatalf("message %d: %v (gso_size %d)", i, msg, seg)
		}
		if fromRaw != fromUDP {
			t.Fatalf("demux keys diverge:\nraw %x\nudp %x", fromRaw, fromUDP)
		}
		if ua := rawToUDPAddr(rx.names[slot]); ua == nil || ua.Port != a.LocalAddr().(*net.UDPAddr).Port {
			t.Fatalf("rawToUDPAddr = %v", ua)
		}
	}
}

package vkernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"blastlan/internal/sim"
	"blastlan/internal/wire"
)

// This file implements the V kernel's short-message IPC — the Send /
// Receive / Reply primitives of Cheriton & Zwaenepoel's kernel [4,6] that
// precede every MoveTo in practice: "It then sends a message to the file
// server indicating the starting address of the buffer and its length" (§2).
//
// V messages are fixed 32-byte records delivered synchronously: Send blocks
// the client until the server Replies. Remote messages ride in single
// ack-sized packets with at-least-once retransmission and reply
// deduplication, which is the V interkernel protocol's design point (short
// requests are idempotent at this layer; MoveTo carries the bulk data).

// MsgSize is the fixed V message size in bytes.
const MsgSize = 32

// Message is one V IPC message.
type Message [MsgSize]byte

// PutUint32 and Uint32 give structured access to message words.
func (m *Message) PutUint32(word int, v uint32) {
	binary.BigEndian.PutUint32(m[word*4:word*4+4], v)
}

// Uint32 reads word w.
func (m *Message) Uint32(word int) uint32 {
	return binary.BigEndian.Uint32(m[word*4 : word*4+4])
}

// IPC errors.
var (
	ErrIPCTimeout = errors.New("vkernel: ipc timed out")
	ErrNoServer   = errors.New("vkernel: no process is receiving")
)

// ipcWire carries V messages between kernels as wire packets. Message
// packets reuse TypeReq with a transfer id in the reserved IPC range so
// they cannot collide with data transfers.
const (
	ipcTransBase = 0xF0000000
	ipcMaxTries  = 50
)

// msgPacket encodes a message exchange packet. kind 0 = request, 1 = reply.
func msgPacket(seq uint32, kind uint8, m *Message) *wire.Packet {
	payload := make([]byte, 1+MsgSize)
	payload[0] = kind
	copy(payload[1:], m[:])
	return &wire.Packet{
		Type:        wire.TypeReq,
		Trans:       ipcTransBase | (seq & 0x0FFFFFFF),
		Seq:         seq,
		Payload:     payload,
		VirtualSize: 64, // one ack-sized packet on the simulated wire
	}
}

// isIPC reports whether a packet belongs to the IPC range and decodes it.
func isIPC(p *wire.Packet) (seq uint32, kind uint8, m *Message, ok bool) {
	if p.Type != wire.TypeReq || p.Trans&ipcTransBase != ipcTransBase || len(p.Payload) != 1+MsgSize {
		return 0, 0, nil, false
	}
	var msg Message
	copy(msg[:], p.Payload[1:])
	return p.Seq, p.Payload[0], &msg, true
}

// ipcState is the per-kernel IPC machinery.
type ipcState struct {
	nextSeq uint32
	// handler serves incoming requests; set by ServeIPC.
	handler func(Message) Message
	// lastReplied / lastReply deduplicate retransmitted requests.
	lastReplied uint32
	lastReply   Message
	seen        bool
}

// ServeIPC registers the kernel's message handler: every incoming request
// message is answered with handler's reply (the V server's Receive+Reply
// loop). The handler runs in the receiving kernel's context.
func (k *Kernel) ServeIPC(handler func(Message) Message) {
	k.ipc.handler = handler
}

// SendMessage performs a synchronous V message exchange from this kernel to
// the peer kernel: the message is transmitted, the peer's registered
// handler produces a reply, and the reply is returned. Lost requests or
// replies are retransmitted up to ipcMaxTries times with the given timeout.
//
// It must be called from a simulation process on this kernel's station, and
// not concurrently with a bulk transfer on the same station (the V kernel
// demultiplexes at interrupt level; this miniature serialises instead — in
// practice the message exchange precedes the MoveTo, as in §2).
func (k *Kernel) SendMessage(p *sim.Proc, m Message, timeout time.Duration) (Message, error) {
	peer := k.peer()
	if peer == nil {
		return Message{}, ErrNoServer
	}
	env := sim.NewEndpoint(p, k.Station, peer.Station)
	k.ipc.nextSeq++
	seq := k.ipc.nextSeq
	if timeout <= 0 {
		timeout = 10 * time.Millisecond
	}
	for try := 0; try < ipcMaxTries; try++ {
		if err := env.Send(msgPacket(seq, 0, &m)); err != nil {
			return Message{}, err
		}
		remaining := timeout
		for remaining > 0 {
			t0 := p.Now()
			pkt, err := env.Recv(remaining)
			if err != nil {
				break // timeout: retransmit the request
			}
			remaining -= p.Now() - t0
			rseq, kind, rm, ok := isIPC(pkt)
			if !ok || kind != 1 {
				// A request for our own handler may arrive while we wait
				// (both kernels can be clients and servers): answer it.
				k.maybeServe(p, env, pkt)
				continue
			}
			if rseq == seq {
				return *rm, nil
			}
			// Stale reply to an earlier exchange: ignore.
		}
	}
	return Message{}, fmt.Errorf("seq %d after %d tries: %w", seq, ipcMaxTries, ErrIPCTimeout)
}

// maybeServe answers an incoming IPC request packet, with reply
// deduplication for retransmitted requests.
func (k *Kernel) maybeServe(p *sim.Proc, env *sim.Endpoint, pkt *wire.Packet) {
	seq, kind, m, ok := isIPC(pkt)
	if !ok || kind != 0 || k.ipc.handler == nil {
		return
	}
	var reply Message
	if k.ipc.seen && seq == k.ipc.lastReplied {
		reply = k.ipc.lastReply // duplicate request: repeat the reply
	} else {
		reply = k.ipc.handler(*m)
		k.ipc.lastReplied = seq
		k.ipc.lastReply = reply
		k.ipc.seen = true
	}
	_ = env.Send(msgPacket(seq, 1, &reply))
}

// peer returns the other kernel in the cluster.
func (k *Kernel) peer() *Kernel {
	if k.cluster == nil {
		return nil
	}
	if k.cluster.A == k {
		return k.cluster.B
	}
	return k.cluster.A
}

// Exchange is the cluster-level convenience: it runs a client process on
// kernel `from` sending msg, with kernel `to` serving via its registered
// handler, and returns the reply together with the client-observed elapsed
// time. The server side polls briefly between requests and retires as soon
// as the client has its reply, so the virtual clock advances by only a few
// milliseconds beyond the exchange itself.
func (c *Cluster) Exchange(from, to *Kernel, msg Message, timeout time.Duration) (Message, time.Duration, error) {
	if timeout <= 0 {
		timeout = 10 * time.Millisecond
	}
	var reply Message
	var sendErr error
	var elapsed time.Duration
	clientDone := false
	c.Sim.Go("ipc-client", func(p *sim.Proc) {
		start := p.Now()
		reply, sendErr = from.SendMessage(p, msg, timeout)
		elapsed = p.Now() - start
		clientDone = true
	})
	c.Sim.Go("ipc-server", func(p *sim.Proc) {
		env := sim.NewEndpoint(p, to.Station, to.peer().Station)
		poll := timeout/4 + time.Millisecond
		for !clientDone {
			pkt, err := env.Recv(poll)
			if err != nil {
				continue // poll expired: re-check the client
			}
			to.maybeServe(p, env, pkt)
		}
	})
	if err := c.Sim.Run(); err != nil {
		return Message{}, 0, err
	}
	return reply, elapsed, sendErr
}

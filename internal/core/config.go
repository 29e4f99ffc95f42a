package core

import (
	"fmt"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// Protocol selects one of the paper's three protocol classes (Figure 1),
// plus the double-buffered blast variant of Figure 3.d.
type Protocol int

// Protocols.
const (
	// StopAndWait sends one packet and waits for its acknowledgement before
	// sending the next.
	StopAndWait Protocol = iota
	// SlidingWindow acknowledges every packet but the sender does not wait;
	// the window is assumed large enough that it never closes (§1).
	SlidingWindow
	// Blast transmits all data packets in sequence with a single
	// acknowledgement for the entire sequence.
	Blast
	// BlastAsync is Blast using SendAsync for the unreliable packets so a
	// double-buffered interface can overlap copies with transmissions
	// (Figure 3.d). On a single-buffered interface it behaves like Blast.
	BlastAsync
)

// String returns the name used in experiment tables.
func (p Protocol) String() string {
	switch p {
	case StopAndWait:
		return "stop-and-wait"
	case SlidingWindow:
		return "sliding-window"
	case Blast:
		return "blast"
	case BlastAsync:
		return "blast-dblbuf"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Strategy selects the blast retransmission strategy (§3.2).
type Strategy int

// Retransmission strategies, in the paper's order.
const (
	// FullNoNak retransmits the full sequence on timeout; the receiver
	// never sends negative acknowledgements (§3.2.1).
	FullNoNak Strategy = iota
	// FullNak retransmits the full sequence on a NAK or timeout; the
	// receiver NAKs when the last packet arrives with gaps (§3.2.2).
	FullNak
	// GoBackN retransmits from the first packet not received, as reported
	// by the NAK (§3.2.3 "partial retransmission"). The paper's
	// recommendation.
	GoBackN
	// Selective retransmits exactly the packets the NAK's bitmap reports
	// missing (§3.2.3).
	Selective
)

// String returns the name used in experiment tables.
func (s Strategy) String() string {
	switch s {
	case FullNoNak:
		return "full-no-nak"
	case FullNak:
		return "full-nak"
	case GoBackN:
		return "go-back-n"
	case Selective:
		return "selective"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config describes one transfer. Both sides must agree on TransferID,
// Bytes, ChunkSize, Protocol, Strategy and Window (in the paper's setting
// the MoveTo/MoveFrom handshake establishes this agreement: the recipient
// has buffers allocated before the transfer starts).
type Config struct {
	// TransferID demultiplexes concurrent transfers.
	TransferID uint32

	// Bytes is the total transfer size.
	Bytes int

	// ChunkSize is the number of transfer bytes carried per data packet.
	// In simulated runs it is also the packet's size on the virtual wire
	// (the paper's convention: 1024-byte data packets, headers included).
	// Defaults to params.DataPacketSize.
	ChunkSize int

	// AckSize is the simulated wire size of acknowledgement and NAK
	// packets. Defaults to params.AckPacketSize.
	AckSize int

	// Protocol selects the protocol class.
	Protocol Protocol

	// Strategy selects the blast retransmission strategy. Ignored by
	// StopAndWait and SlidingWindow.
	Strategy Strategy

	// RetransTimeout is the paper's Tr: the first and the largest interval a
	// sender waits for a response before retransmitting, and its only one
	// on the fixed schedule with no MinRTO and under sliding window (see
	// rto.go). Defaults to 100 ms.
	RetransTimeout time.Duration

	// PathRTT, when positive, is the smoothed round-trip time an earlier
	// transfer measured to the same peer host. It is used at both ends: a
	// sender's estimator and Request's wait for its first packet take it as
	// their first sample (see rto.go) instead of starting from Tr, so a
	// learning sender's lost reliable last in the first window, or a lost
	// REQ, costs about a round trip, not a Tr. It does not ride the REQ:
	// each end remembers it per host and sets it — session.Server for its
	// pull senders, udplan.Pull and udplan.PullStriped for their REQs.
	PathRTT time.Duration

	// MinRTO floors the learned timeout. Zero means 1 ms for a transfer a
	// rate-control policy drives and RetransTimeout on the fixed schedule,
	// whose timer is then the paper's fixed Tr. At or above RetransTimeout
	// it pins every timeout to Tr. A host with heavy scheduling noise can
	// raise it so a late response is not taken for a loss.
	MinRTO time.Duration

	// Window, when non-zero, splits a blast transfer into multiple blasts
	// of at most Window packets each (§3.1.3 "multiple blasts"). Zero means
	// a single blast. Ignored by StopAndWait and SlidingWindow.
	Window int

	// Controller names the rate-control policy that drives a blast transfer
	// instead of the fixed Window: one of the built-in RateController
	// policies ("aimd", "autotune"; see ratecontrol.go) whose window
	// size reacts to observed NAKs, retransmissions and timeouts, and whose
	// retransmission timeout is learned down to 1 ms (see MinRTO).
	// Window, when set, seeds the controller's initial window.
	// Empty runs the fixed schedule. Unknown names are rejected by
	// ValidateConfig. Ignored by StopAndWait and SlidingWindow.
	Controller string

	// StripeOffset and StripeTotal identify this transfer as one stripe of
	// a larger logical stream: the transfer's Bytes start StripeOffset
	// bytes into a StripeTotal-byte stream. Both zero for a standalone
	// transfer. StripeOffset must be chunk-aligned; the values ride the REQ
	// so a serving side can address exactly the requested range (see
	// stripe.go). They do not change the local engine's behaviour.
	StripeOffset int
	StripeTotal  int

	// Name identifies the remote object a pull addresses — a file the
	// serving side resolves by name through its store. Empty for anonymous
	// (seeded or pushed) transfers. Rides the REQ's name extension; must
	// satisfy wire.ValidReqName when set.
	Name string

	// MaxAttempts bounds the number of transmission rounds (per window)
	// before the sender gives up with ErrGiveUp. Defaults to 10000.
	MaxAttempts int

	// Linger is how long the receiver stays alive after completing the
	// transfer to re-acknowledge retransmissions whose acks were lost. The
	// timer restarts on every received packet of the transfer. Defaults to
	// 4*RetransTimeout + 1 s.
	Linger time.Duration

	// ReceiverIdle bounds how long the receiver waits for the next packet
	// of an incomplete transfer before concluding the sender is gone.
	// Defaults to 64*RetransTimeout + 10 s (virtual time is free in
	// simulation; real callers should set a tighter bound).
	ReceiverIdle time.Duration

	// Payload, when non-nil, is the data to transfer (real substrates).
	// When nil the transfer is simulated: packets carry sizes only.
	Payload []byte

	// Source, when non-nil, supplies packet payloads on demand instead of
	// Payload, so a large transfer never needs a contiguous in-memory copy
	// (a 1 GB pull is generated chunk by chunk). Mutually exclusive with
	// Payload. Retransmissions call it again for the same seq, so it must
	// be deterministic.
	Source ChunkSource

	// Sink, when non-nil, consumes delivered chunks instead of assembling
	// RecvResult.Data: each distinct data packet is handed over exactly
	// once, with its byte offset in the transfer. Blast receivers deliver
	// out of order. RecvResult.Checksum is still reported (computed
	// incrementally); RecvResult.Data stays nil.
	Sink ChunkSink

	// srcBuf is the reusable chunk scratch handed to Source; sized once in
	// withDefaults so the steady-state send loop allocates nothing.
	srcBuf []byte

	// firstIdle, when positive and shorter than the idle bound, bounds the
	// receiver's wait for the transfer's first own packet: Request sets it
	// to its REQ timer (rto.go), so a lost REQ is asked again after that,
	// not after the 4·Tr of silence a transfer under way may sit through.
	firstIdle time.Duration

	// surfaceBusy makes Request return a server's BUSY refusal to the
	// caller immediately instead of honoring the retry-after hint inside
	// the ask loop. Set by PullResume, which owns the backoff policy
	// (jitter, budgets, stats) and must observe every refusal.
	surfaceBusy bool
}

// ChunkSource deterministically supplies the payload of data packet seq. It
// may fill dst (a scratch of at least ChunkSize bytes, reused across calls)
// and return a prefix of it, or return its own slice; the engine consumes
// the bytes before the next call. The final packet's chunk is short.
type ChunkSource func(seq int, dst []byte) []byte

// ChunkSink consumes one delivered chunk at byte offset off of the
// transfer. The slice is only valid during the call.
type ChunkSink func(off int, chunk []byte)

// realMode reports whether the transfer moves real bytes (as opposed to a
// payload-elided simulation).
func (c *Config) realMode() bool { return c.Payload != nil || c.Source != nil }

// withDefaults returns a copy with defaults applied, or an error.
func (c Config) withDefaults() (Config, error) {
	if c.ChunkSize == 0 {
		c.ChunkSize = params.DataPacketSize
	}
	if c.AckSize == 0 {
		c.AckSize = params.AckPacketSize
	}
	if c.RetransTimeout == 0 {
		c.RetransTimeout = 100 * time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 10000
	}
	if c.Linger == 0 {
		c.Linger = 4*c.RetransTimeout + time.Second
	}
	switch {
	case c.Bytes <= 0:
		return c, fmt.Errorf("%w: Bytes must be positive, got %d", ErrBadConfig, c.Bytes)
	case c.ChunkSize <= 0:
		return c, fmt.Errorf("%w: ChunkSize must be positive", ErrBadConfig)
	case c.AckSize <= 0:
		return c, fmt.Errorf("%w: AckSize must be positive", ErrBadConfig)
	case c.RetransTimeout < 0:
		return c, fmt.Errorf("%w: RetransTimeout must be positive", ErrBadConfig)
	case c.Window < 0:
		return c, fmt.Errorf("%w: Window must be non-negative", ErrBadConfig)
	case c.MaxAttempts < 1:
		return c, fmt.Errorf("%w: MaxAttempts must be positive", ErrBadConfig)
	case c.Protocol < StopAndWait || c.Protocol > BlastAsync:
		return c, fmt.Errorf("%w: unknown protocol %d", ErrBadConfig, c.Protocol)
	case c.Strategy < FullNoNak || c.Strategy > Selective:
		return c, fmt.Errorf("%w: unknown strategy %d", ErrBadConfig, c.Strategy)
	case c.Payload != nil && len(c.Payload) != c.Bytes:
		return c, fmt.Errorf("%w: len(Payload)=%d but Bytes=%d", ErrBadConfig, len(c.Payload), c.Bytes)
	case c.Payload != nil && c.Source != nil:
		return c, fmt.Errorf("%w: Payload and Source are mutually exclusive", ErrBadConfig)
	}
	if c.realMode() && c.ChunkSize > wire.AbsMaxPayload {
		return c, fmt.Errorf("%w: ChunkSize %d exceeds wire.AbsMaxPayload %d", ErrBadConfig, c.ChunkSize, wire.AbsMaxPayload)
	}
	if err := c.validateStripe(); err != nil {
		return c, err
	}
	if c.Controller != "" && controllerIndex(c.Controller) < 0 {
		return c, unknownController(c.Controller)
	}
	if c.Name != "" && !wire.ValidReqName(c.Name) {
		return c, fmt.Errorf("%w: Name %q does not fit the request encoding", ErrBadConfig, c.Name)
	}
	if c.Source != nil {
		c.srcBuf = make([]byte, c.ChunkSize)
	}
	return c, nil
}

// NumPackets returns the number of data packets the transfer needs
// (the paper's N or D).
func (c Config) NumPackets() int {
	chunk := c.ChunkSize
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	if c.Bytes <= 0 {
		return 0
	}
	return (c.Bytes + chunk - 1) / chunk
}

// fillData overwrites p with the data packet for sequence number seq and
// returns it. Every Env consumes a packet before Send returns, so senders
// pass one scratch packet for the whole transfer and the steady-state send
// loop allocates nothing.
func (c *Config) fillData(p *wire.Packet, seq, total int, attempt int, last bool) *wire.Packet {
	*p = wire.Packet{
		Type:  wire.TypeData,
		Trans: c.TransferID,
		Seq:   uint32(seq),
		Total: uint32(total),
	}
	if attempt > 255 {
		attempt = 255
	}
	p.Attempt = uint8(attempt)
	if last {
		p.Flags |= wire.FlagLast
	}
	switch {
	case c.Payload != nil:
		lo := seq * c.ChunkSize
		hi := lo + c.ChunkSize
		if hi > len(c.Payload) {
			hi = len(c.Payload)
		}
		p.Payload = c.Payload[lo:hi]
	case c.Source != nil:
		p.Payload = c.Source(seq, c.srcBuf)
	}
	// On a simulated wire the packet occupies ChunkSize bytes (the final
	// packet only its remainder) — the paper's convention, which counts
	// headers inside the quoted 1024-byte data packet size. Real sockets
	// ignore VirtualSize and encode header + payload.
	size := c.ChunkSize
	if rem := c.Bytes - seq*c.ChunkSize; rem < size {
		size = rem
	}
	p.VirtualSize = size
	return p
}

// fillAck overwrites p with a cumulative acknowledgement and returns it:
// nextExpected == total acknowledges the whole transfer. Receivers pass one
// ack packet for the whole transfer, as senders do with fillData.
func (c *Config) fillAck(p *wire.Packet, nextExpected, total int) *wire.Packet {
	*p = wire.Packet{
		Type:        wire.TypeAck,
		Trans:       c.TransferID,
		Seq:         uint32(nextExpected),
		Total:       uint32(total),
		VirtualSize: c.AckSize,
	}
	if nextExpected >= total {
		p.Flags |= wire.FlagAllReceived
	}
	return p
}

// finPacket builds the post-completion FIN (FlagDone): a best-effort
// notice from the sender that its final acknowledgement arrived, releasing
// the receiver from its linger.
func (c *Config) finPacket() *wire.Packet {
	return &wire.Packet{
		Type:        wire.TypeAck,
		Trans:       c.TransferID,
		Flags:       wire.FlagDone,
		VirtualSize: c.AckSize,
	}
}

// nakPacket builds a negative acknowledgement. firstMissing is always set;
// missing carries the selective bitmap when strategy is Selective.
func (c *Config) nakPacket(firstMissing, total int, missing []uint32) (*wire.Packet, error) {
	p := &wire.Packet{
		Type:  wire.TypeNak,
		Trans: c.TransferID,
		Seq:   uint32(firstMissing),
		Total: uint32(total),
	}
	if len(missing) > 0 {
		payload, err := wire.EncodeMissing(missing)
		if err != nil {
			return nil, err
		}
		p.Payload = payload
		// Preserve the decoded form so simulated senders need not re-parse.
		p.SimMissing = missing
	}
	p.VirtualSize = c.AckSize
	return p, nil
}

// SendResult reports the sender side of a transfer.
type SendResult struct {
	Elapsed      time.Duration // start of first send to receipt of final ack
	DataPackets  int           // data packets transmitted, including retransmissions
	Retransmits  int           // data packets beyond the first transmission of each
	Rounds       int           // transmission rounds (1 = error-free)
	Timeouts     int           // Recv deadlines that expired
	AcksReceived int
	NaksReceived int

	// SRTT is the retransmission estimator's smoothed round-trip time when
	// the sender finished: what a later transfer to the same host may start
	// from as its Config.PathRTT. Zero when it never sampled (and for
	// sliding window, which keeps no estimator).
	SRTT time.Duration

	// Controller summarises the rate-control trajectory of a controlled
	// transfer (nil when no Config.Controller policy drove it) — the
	// per-stripe stats feed. Stats.Policy names the policy that ran.
	Controller *ControllerStats
}

// RecvResult reports the receiver side of a transfer.
type RecvResult struct {
	Elapsed      time.Duration // receiver start (the wait for the first packet included) to transfer completion
	DataPackets  int           // data packets received, including duplicates
	Duplicates   int           // data packets that were already held
	AcksSent     int
	NaksSent     int
	Completed    bool
	Bytes        int    // distinct payload bytes received
	Data         []byte // reassembled payload (real mode only)
	Checksum     uint16 // Internet checksum of Data (real mode only)
	LingerEvents int    // retransmissions handled after completion
	LingerAcks   int    // of AcksSent, those sent during the linger
	LingerNaks   int    // of NaksSent, those sent during the linger
	Reqs         int    // REQs Request sent: 1 when the first was answered
	Refusals     int    // of Reqs, those the server refused with a BUSY

	// SRTT is Request's estimate of the round trip to the peer host when
	// its first REQ was answered: Config.PathRTT with the time from that
	// REQ to the transfer's first own packet folded in (rto.go), what a
	// later pull from the same host may start from as its PathRTT. Zero
	// when the first REQ went unanswered (Karn's rule: a re-asked REQ's
	// answer could be either REQ's) and for a receiver Request did not run.
	SRTT time.Duration

	// firstAt is when the receiver's first own packet arrived, measured
	// from the receiver's start: Request's REQ round-trip sample. Zero when
	// none arrived.
	firstAt time.Duration
	// sinkSum incrementally accumulates Checksum for Sink-mode transfers,
	// where no contiguous Data buffer ever exists; usedSink records that
	// the transfer streamed.
	sinkSum  wire.SumAcc
	usedSink bool
}

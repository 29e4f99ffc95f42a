package session

// Transfer-ID scheme for stripe fan-outs, so one Done-hook map joins
// sender-side counters to the right session: stripe k of receiver i and
// relay k's uplink each get a distinct ID. FanoutStripeStride bounds stripes
// per receiver.
const FanoutStripeStride = 16

// FanoutReceiverID is receiver i's transfer ID for stripe k (k = 0 for a
// baseline whole-object pull).
func FanoutReceiverID(i, k int) uint32 { return uint32(101 + i*FanoutStripeStride + k) }

// FanoutRelayID is relay k's uplink transfer ID.
func FanoutRelayID(k int) uint32 { return uint32(901 + k) }

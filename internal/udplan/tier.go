package udplan

import (
	"fmt"
	"os"
	"syscall"
)

// Tier identifies one rung of the batched-datapath degradation ladder. The
// endpoint (and the sharded server's per-session writers) pick the highest
// tier the socket, kernel and platform support at configuration time, and
// every rung degrades to the one below it at runtime when a particular
// flush cannot take the fast path (an unresolvable peer address, say) — so
// the ladder is a latency/syscall optimisation, never a correctness
// requirement:
//
//	TierGSO     one sendmsg per flush: the whole frame ring rides a single
//	            UDP_SEGMENT superbuffer through one kernel traversal, and
//	            (on the receive side) UDP_GRO delivers coalesced
//	            superbuffers split back into frames by the gso_size cmsg.
//	            Linux ≥ 4.18 (≥ 5.0 for GRO), probed at socket setup.
//	TierMmsg    one sendmmsg per flush. Linux.
//	TierWriteTo a portable WriteTo loop: the ring still forms and flushes,
//	            only the syscall count differs. Everywhere.
//
// A tier decides how a flush reaches the wire, never where flushes fall:
// the same sends flush the same runs of frames at every tier, rate-controlled
// transfers included (TestControlledFlushesIgnoreTier).
//
// The tier is a transmit ladder. Every tier receives the same way: one
// recvmmsg into the receive ring (one ReadFrom where the platform has no
// recvmmsg), coalesced by UDP_GRO on the GSO tier.
//
// The zero value means "auto": pick the best supported tier.
type Tier uint8

// Datapath tiers, best last. TierAuto (the zero value) is not a tier but a
// request to probe for the best one.
const (
	TierAuto    Tier = 0
	TierWriteTo Tier = 1
	TierMmsg    Tier = 2
	TierGSO     Tier = 3
)

// String returns the tier's flag-friendly name.
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierWriteTo:
		return "writeto"
	case TierMmsg:
		return "mmsg"
	case TierGSO:
		return "gso"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// ParseTier parses a tier name as accepted by the -tier flags of blastd,
// blastcp and lanbench ("gso", "mmsg", "writeto", "auto").
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "auto":
		return TierAuto, nil
	case "writeto":
		return TierWriteTo, nil
	case "mmsg":
		return TierMmsg, nil
	case "gso":
		return TierGSO, nil
	}
	return TierAuto, fmt.Errorf("udplan: unknown tier %q (want gso, mmsg, writeto or auto)", s)
}

// TierEnv is the environment knob capping the datapath tier for a whole
// process, so CI can exercise every rung of the GSO→mmsg→WriteTo chain on a
// kernel where the best tier works (see the forced-fallback tests).
const TierEnv = "BLASTLAN_TIER"

// tierCapFromEnv returns the process-wide tier cap, TierAuto when unset or
// unparseable (a bad value must not silently slow a production daemon; the
// flags are the supported interface, the env var is a test override).
func tierCapFromEnv() Tier {
	v := os.Getenv(TierEnv)
	if v == "" {
		return TierAuto
	}
	t, err := ParseTier(v)
	if err != nil {
		return TierAuto
	}
	return t
}

// capTier applies an explicit cap to a probed tier; TierAuto caps nothing.
func capTier(t, cap Tier) Tier {
	if cap != TierAuto && t > cap {
		return cap
	}
	return t
}

// pickTxTier probes the best transmit tier a socket supports at the given
// batch size, honouring the writer's configured cap and the process-wide
// BLASTLAN_TIER override. Batch ≤ 1 always means the plain path: the tiers
// only amortise multi-frame flushes.
func pickTxTier(raw syscall.RawConn, batch int, max Tier) Tier {
	limit := capTier(capTier(TierGSO, max), tierCapFromEnv())
	if batch <= 1 || raw == nil {
		return TierWriteTo
	}
	t := TierWriteTo
	if mmsgSupported {
		t = TierMmsg
		if gsoSupported && limit >= TierGSO && probeGSO(raw) {
			t = TierGSO
		}
	}
	return capTier(t, limit)
}

//go:build !linux || !(amd64 || arm64)

package udplan

// Portable no-op stand-ins for the Linux GSO/GRO segmentation-offload path:
// on these platforms the probe always fails, so endpoints settle on the
// sendmmsg tier (itself stubbed on non-Linux) or the WriteTo loop. The
// rings, flush points and adversary semantics are identical everywhere —
// only the syscall count differs.

import (
	"net"
	"syscall"
)

// gsoSupported reports whether this build can attempt the GSO tier at all.
const gsoSupported = false

type gsoSender struct{}

func probeGSO(syscall.RawConn) bool { return false }

func setGRO(syscall.RawConn, bool) bool { return false }

func sendGSO(syscall.RawConn, *gsoSender, net.Addr, [][]byte, []int, int) (bool, error) {
	return false, nil
}

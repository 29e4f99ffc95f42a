//go:build !unix

package udplan

import "syscall"

// connReadBuffer cannot read the granted receive buffer back here; callers
// fall back to their own default.
func connReadBuffer(syscall.RawConn) int { return 0 }

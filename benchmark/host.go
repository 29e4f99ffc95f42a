package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blastlan/internal/udplan"
)

// procSet is the set of processes a run is charged for: the benchmark
// itself, every blastcp it has waited for, and the daemon it spawned.
type procSet struct {
	daemon    int          // blastd pid, 0 when the workload is in-process
	clientRSS func() int64 // largest resident set, in kB, of the blastcp processes so far
}

// hostSnap is a point-in-time reading of the host counters a phase is
// charged with; hostDelta is the difference of two.
type hostSnap struct {
	user, sys    time.Duration // CPU of self + waited children + daemon
	daemonCPU    time.Duration
	childCPU     time.Duration
	ctxSwitches  int64
	mallocs      uint64
	udpIn        int64 // /proc/net/snmp Udp: InDatagrams
	udpRcvbufErr int64 // /proc/net/snmp Udp: RcvbufErrors
}

type hostDelta = hostSnap

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func (ps *procSet) snapshot() hostSnap {
	var s hostSnap
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	s.user = tv(self.Utime) + tv(kids.Utime)
	s.sys = tv(self.Stime) + tv(kids.Stime)
	s.childCPU = tv(kids.Utime) + tv(kids.Stime)
	s.ctxSwitches = self.Nvcsw + self.Nivcsw + kids.Nvcsw + kids.Nivcsw
	if ps.daemon != 0 {
		u, k := procCPU(ps.daemon)
		s.user += u
		s.sys += k
		s.daemonCPU = u + k
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.udpIn, s.udpRcvbufErr = udpCounters()
	return s
}

func (a hostSnap) sub(b hostSnap) hostDelta {
	return hostDelta{
		user: a.user - b.user, sys: a.sys - b.sys,
		daemonCPU: a.daemonCPU - b.daemonCPU, childCPU: a.childCPU - b.childCPU,
		ctxSwitches: a.ctxSwitches - b.ctxSwitches, mallocs: a.mallocs - b.mallocs,
		udpIn: a.udpIn - b.udpIn, udpRcvbufErr: a.udpRcvbufErr - b.udpRcvbufErr,
	}
}

// peakRSSMB is the largest resident set any charged process reached.
// RUSAGE_CHILDREN would be simpler for the clients, but this process
// inherits run.sh's children, and a go build outweighs every workload.
func (ps *procSet) peakRSSMB() float64 {
	peak := procStatusKB(os.Getpid(), "VmHWM")
	if ps.daemon != 0 {
		peak = max(peak, procStatusKB(ps.daemon, "VmHWM"), ps.clientRSS())
	}
	return float64(peak) * 1024 / 1e6
}

// procStatusKB reads one kB-valued field of /proc/<pid>/status.
func procStatusKB(pid int, field string) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// procCPU reads a live process's user and system CPU time from
// /proc/<pid>/stat (clock ticks of 10 ms on Linux).
func procCPU(pid int) (user, sys time.Duration) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, so the 12th and 13th after ")".
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0
	}
	const tick = 10 * time.Millisecond
	u, _ := strconv.ParseInt(f[11], 10, 64)
	k, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u) * tick, time.Duration(k) * tick
}

// udpCounters reads the host-wide UDP datagram counters.
func udpCounters() (in, rcvbufErr int64) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, 0
	}
	var names []string
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Udp:" {
			continue
		}
		if names == nil {
			names = f
			continue
		}
		for i, name := range names {
			if i >= len(f) {
				break
			}
			n, _ := strconv.ParseInt(f[i], 10, 64)
			switch name {
			case "InDatagrams":
				in = n
			case "RcvbufErrors":
				rcvbufErr = n
			}
		}
	}
	return in, rcvbufErr
}

// rcvbufEffective asks the kernel what a 4 MiB SO_RCVBUF request actually
// yields (the kernel doubles the request and clamps it at rmem_max).
func rcvbufEffective() float64 {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer conn.Close()
	udplan.SetConnBuffers(conn, 4*mb)
	raw, err := conn.(*net.UDPConn).SyscallConn()
	if err != nil {
		return 0
	}
	var got int
	raw.Control(func(fd uintptr) {
		got, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return float64(got)
}

// hostMetrics turns a traced phase's host counters into per-layer metrics.
func hostMetrics(p phase) map[string]float64 {
	h := p.host
	m := map[string]float64{
		"kernel.udp_rcvbuf_errors_per_mb": perMB(float64(h.udpRcvbufErr), p.bytes),
		"kernel.udp_in_datagrams_per_mb":  perMB(float64(h.udpIn), p.bytes),
		"kernel.rcvbuf_effective_bytes":   rcvbufEffective(),
		"proc.user_ns_per_byte":           perByte(h.user, p.bytes),
		"proc.sys_ns_per_byte":            perByte(h.sys, p.bytes),
		"proc.ctx_switches_per_mb":        perMB(float64(h.ctxSwitches), p.bytes),
		"cmd.blastcp_cpu_ms_per_mb":       perMB(ms(h.childCPU), p.bytes),
		"cmd.blastd_cpu_ms_per_mb":        perMB(ms(h.daemonCPU), p.bytes),
	}
	if n := len(p.durs); n > 0 {
		m["proc.allocs_per_transfer"] = float64(h.mallocs) / float64(n)
	}
	return m
}

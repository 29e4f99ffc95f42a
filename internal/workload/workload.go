// Package workload generates the transfer patterns the paper's evaluation
// and motivation use: page-sized file reads (the intro's case for large
// page sizes, [10,12,15]), remote file-system dumps (§1's "larger sizes"),
// and the screen-image downloads that gave blast protocols their name (§4:
// MIT's VAX-to-Alto screen downloader).
package workload

import (
	"math/rand"

	"blastlan/internal/params"
)

// Transfer is one unit of offered work.
type Transfer struct {
	Name  string
	Bytes int
}

// Payload deterministically fills a buffer of the transfer's size; seed
// varies content across repetitions.
func (t Transfer) Payload(seed int64) []byte {
	b := make([]byte, t.Bytes)
	rand.New(rand.NewSource(seed ^ int64(t.Bytes))).Read(b)
	return b
}

// Packets returns the data-packet count for the default chunk size.
func (t Transfer) Packets() int { return params.Packets(t.Bytes) }

// PageReadSizes is the ladder of transfer sizes the paper's tables sweep:
// one packet up to the 64-packet transfer of Tables 1–3.
func PageReadSizes() []Transfer {
	return []Transfer{
		{"1KB", 1 * 1024},
		{"4KB", 4 * 1024},
		{"16KB", 16 * 1024},
		{"64KB", 64 * 1024},
	}
}

// FigureSizes is the finer ladder used for Figure 4's curves.
func FigureSizes() []Transfer {
	var out []Transfer
	for n := 1; n <= 64; n *= 2 {
		out = append(out, Transfer{Name: sizeName(n), Bytes: n * 1024})
	}
	return out
}

func sizeName(nKB int) string {
	const digits = "0123456789"
	if nKB == 0 {
		return "0KB"
	}
	var buf [8]byte
	i := len(buf)
	for nKB > 0 {
		i--
		buf[i] = digits[nKB%10]
		nKB /= 10
	}
	return string(buf[i:]) + "KB"
}

// FileDump is §1's remote file-system dump: orders of magnitude larger
// than a packet, the motivating case for multiblast (§3.1.3).
func FileDump() Transfer {
	return Transfer{Name: "fs-dump-1MB", Bytes: 1 << 20}
}

// MultiblastWindows is the window ladder the multiblast experiment sweeps
// for the FileDump transfer (in packets; 0 = one giant blast).
func MultiblastWindows() []int { return []int{16, 64, 256, 0} }

// LossLadder returns the p_n decade points of Figure 5/6's x-axis.
func LossLadder(from, to float64) []float64 {
	var out []float64
	for p := from; p <= to*1.0000001; p *= 10 {
		out = append(out, p)
	}
	return out
}

package udplan

import (
	"errors"
	"testing"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// Error-path coverage for the endpoint configuration surface: exact ErrMTU
// boundaries, degenerate batch sizes, and jumbo chunks beyond the codec's
// hard payload bound. The happy paths are covered by the jumbo/batch
// transfer tests; these pin the rejections.

func TestValidateConfigMTUBoundaries(t *testing.T) {
	ea, _ := pipe(t)
	// Default MTU 2048: a chunk of exactly MTU-HeaderSize fits...
	fits := core.Config{Bytes: 10000, ChunkSize: MaxDatagram - wire.HeaderSize}
	if err := ea.ValidateConfig(fits); err != nil {
		t.Errorf("chunk exactly filling the MTU rejected: %v", err)
	}
	// ...and one byte more does not, with errors.Is-able ErrMTU.
	over := fits
	over.ChunkSize++
	err := ea.ValidateConfig(over)
	if !errors.Is(err, ErrMTU) {
		t.Errorf("chunk one byte over the MTU: err = %v, want ErrMTU", err)
	}
	// The zero chunk defaults to params.DataPacketSize and fits.
	if err := ea.ValidateConfig(core.Config{Bytes: 10000}); err != nil {
		t.Errorf("default chunk rejected: %v", err)
	}
	// A raised MTU admits exactly the matching jumbo chunk.
	if err := ea.SetMTU(9000); err != nil {
		t.Fatal(err)
	}
	jumbo := core.Config{Bytes: 1 << 20, ChunkSize: 9000 - wire.HeaderSize}
	if err := ea.ValidateConfig(jumbo); err != nil {
		t.Errorf("jumbo chunk matching the raised MTU rejected: %v", err)
	}
	jumbo.ChunkSize++
	if err := ea.ValidateConfig(jumbo); !errors.Is(err, ErrMTU) {
		t.Errorf("jumbo chunk over the raised MTU: err = %v, want ErrMTU", err)
	}
}

func TestSetMTUBoundaries(t *testing.T) {
	ea, _ := pipe(t)
	// The smallest legal MTU carries a one-byte payload.
	if err := ea.SetMTU(wire.HeaderSize + 1); err != nil {
		t.Errorf("minimum MTU rejected: %v", err)
	}
	if err := ea.SetMTU(wire.HeaderSize); err == nil {
		t.Error("header-only MTU accepted")
	}
	if err := ea.SetMTU(0); err == nil {
		t.Error("zero MTU accepted")
	}
	if err := ea.SetMTU(-1); err == nil {
		t.Error("negative MTU accepted")
	}
	// The largest UDP/IPv4 datagram is the ceiling, inclusive.
	if err := ea.SetMTU(MaxMTU); err != nil {
		t.Errorf("MaxMTU rejected: %v", err)
	}
	if err := ea.SetMTU(MaxMTU + 1); err == nil {
		t.Error("MTU beyond the largest UDP datagram accepted")
	}
	if got := ea.mtu; got != MaxMTU {
		t.Errorf("failed SetMTU mutated the endpoint: MTU = %d", got)
	}
}

func TestSetBatchDegenerate(t *testing.T) {
	ea, _ := pipe(t)
	for _, n := range []int{0, 1, -3} {
		ea.SetBatch(8) // engage, then collapse
		ea.SetBatch(n)
		if got := ea.Batch(); got != 1 {
			t.Errorf("SetBatch(%d): Batch() = %d, want the single-syscall path", n, got)
		}
	}
	// SetMTU with batching engaged re-sizes the rings, preserving the
	// batch size.
	ea.SetBatch(16)
	if err := ea.SetMTU(9000); err != nil {
		t.Fatal(err)
	}
	if got := ea.Batch(); got != 16 {
		t.Errorf("Batch() after SetMTU = %d, want 16", got)
	}
}

// Chunks beyond the codec's hard payload bound must be rejected before any
// socket work: by core's config validation for real-mode transfers, and by
// the MTU check for the endpoint even in simulated mode.
func TestJumboBeyondAbsMaxPayload(t *testing.T) {
	ea, _ := pipe(t)
	if err := ea.SetMTU(MaxMTU); err != nil {
		t.Fatal(err)
	}
	huge := core.Config{
		Bytes:     wire.AbsMaxPayload + 1,
		ChunkSize: wire.AbsMaxPayload + 1,
		Payload:   make([]byte, wire.AbsMaxPayload+1),
	}
	if _, err := Push(ea, huge); !errors.Is(err, core.ErrBadConfig) && !errors.Is(err, ErrMTU) {
		t.Errorf("chunk beyond AbsMaxPayload accepted: %v", err)
	}
	// Exactly AbsMaxPayload passes the MTU check at MaxMTU (the codec
	// bound and the datagram bound coincide there).
	edge := core.Config{Bytes: 1 << 20, ChunkSize: wire.AbsMaxPayload}
	if err := ea.ValidateConfig(edge); err != nil {
		t.Errorf("chunk of exactly AbsMaxPayload at MaxMTU rejected: %v", err)
	}
}

// The server-side validation shares validateConfigMTU: a serving MTU
// rejects oversized requests with ErrMTU before any session state forms.
func TestServerMTUValidation(t *testing.T) {
	cfg := core.Config{Bytes: 1 << 20, ChunkSize: 4000}
	if err := validateConfigMTU(cfg, MaxDatagram); !errors.Is(err, ErrMTU) {
		t.Errorf("4000-byte chunk at default MTU: err = %v, want ErrMTU", err)
	}
	if err := validateConfigMTU(cfg, 9000); err != nil {
		t.Errorf("4000-byte chunk at jumbo MTU rejected: %v", err)
	}
	// Boundary: header + chunk exactly equal to the MTU is legal.
	cfg.ChunkSize = 9000 - wire.HeaderSize
	if err := validateConfigMTU(cfg, 9000); err != nil {
		t.Errorf("exact-fit chunk rejected: %v", err)
	}
	cfg.ChunkSize++
	if err := validateConfigMTU(cfg, 9000); !errors.Is(err, ErrMTU) {
		t.Errorf("one-over chunk: err = %v, want ErrMTU", err)
	}
}

package wire

import (
	"math/bits"
	"strings"
	"testing"
)

// TestReqFeatureBitRegistry is the exhaustiveness check the registry
// promises: every allocation is well-formed, no two allocations in the
// same byte namespace overlap, and the flags byte is exactly as full as
// its documentation claims — so the next feature bit must go to xflags,
// and two branches cannot grab the same bit without one of them failing
// this test.
func TestReqFeatureBitRegistry(t *testing.T) {
	taken := map[string]uint8{}
	names := map[string]bool{}
	for _, f := range reqFeatureBits {
		if f.Mask == 0 {
			t.Errorf("feature %q allocates no bits", f.Name)
		}
		if f.Byte != "flags" && f.Byte != "xflags" {
			t.Errorf("feature %q names unknown byte namespace %q", f.Name, f.Byte)
			continue
		}
		key := f.Byte + "/" + f.Name
		if names[key] {
			t.Errorf("feature %q registered twice in %s", f.Name, f.Byte)
		}
		names[key] = true
		if overlap := taken[f.Byte] & f.Mask; overlap != 0 {
			t.Errorf("feature %q overlaps earlier allocation in %s byte: mask %08b collides on %08b",
				f.Name, f.Byte, f.Mask, overlap)
		}
		taken[f.Byte] |= f.Mask
	}
	// The flags byte is fully allocated: three flag bits plus the five-bit
	// policy field. If this fails low, a constant was added without a
	// registry row; it cannot fail high without an overlap error above.
	if taken["flags"] != 0xFF {
		t.Errorf("flags byte allocation %08b, want 11111111 (fully allocated)", taken["flags"])
	}
	// xflags must track its constants too: the union of registered masks
	// is a contiguous run from bit 0 (allocations don't skip bits).
	x := taken["xflags"]
	if x == 0 {
		t.Error("no xflags allocations registered")
	}
	if x&(x+1) != 0 {
		t.Errorf("xflags allocation %08b skips bits", x)
	}
	if got := bits.OnesCount8(x & reqXflagCopy); got != 1 {
		t.Errorf("copy xflag allocates %d bits", got)
	}
}

// TestReqCopyExtension pins the second trailing extension: copy + target
// round-trip, old decoders that stop at the name extension stay intact,
// and malformed extensions error rather than misread.
func TestReqCopyExtension(t *testing.T) {
	r := Req{Bytes: 4 << 20, Chunk: 1000, Name: "models/weights.bin",
		Copy: true, Target: "10.0.0.7:7025", TrMicros: 200_000}
	got, err := DecodeReq(EncodeReq(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("copy round trip %+v -> %+v", r, got)
	}
	// A copy REQ with no name still needs the second extension, so the
	// name extension is emitted with a zero length byte in front of it.
	anon := Req{Bytes: 1, Copy: true, Target: "b:1"}
	if got, err := DecodeReq(EncodeReq(anon)); err != nil || got != anon {
		t.Errorf("anonymous copy round trip %+v -> %+v, %v", anon, got, err)
	}
	if n := len(EncodeReq(anon)); n != reqLen+1+2+len(anon.Target) {
		t.Errorf("anonymous copy REQ is %d bytes", n)
	}
	// A decoder reading only through the name extension sees a plain
	// named REQ — the copy ask degrades to absent, never to a misread.
	enc := EncodeReq(r)
	nameOnly, err := DecodeReq(enc[:reqLen+1+len(r.Name)])
	if err != nil {
		t.Fatal(err)
	}
	if nameOnly.Copy || nameOnly.Target != "" || nameOnly.Name != r.Name {
		t.Errorf("name-prefix decode = %+v", nameOnly)
	}
	// A zero second-extension length byte means "no extension yet".
	empty := append(append([]byte{}, enc[:reqLen+1+len(r.Name)]...), 0)
	if got, err := DecodeReq(empty); err != nil || got.Copy {
		t.Errorf("zero-length second extension: %+v, %v", got, err)
	}
	// A truncated second extension is malformed, not silently shortened.
	if _, err := DecodeReq(enc[:len(enc)-2]); err == nil {
		t.Error("truncated second extension should error")
	}
	// Unknown xflags bits are ignored (future features decode cleanly).
	fut := append([]byte{}, enc...)
	fut[reqLen+1+len(r.Name)+1] |= 0x80
	if got, err := DecodeReq(fut); err != nil || got != r {
		t.Errorf("future xflags bit: %+v, %v", got, err)
	}
	// Max-length targets encode; longer ones are a caller bug.
	long := Req{Bytes: 1, Copy: true, Target: strings.Repeat("x", MaxReqTarget)}
	if got, err := DecodeReq(EncodeReq(long)); err != nil || len(got.Target) != MaxReqTarget {
		t.Errorf("max-length target: %d bytes, %v", len(got.Target), err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-long target should panic at encode")
			}
		}()
		EncodeReq(Req{Bytes: 1, Copy: true, Target: strings.Repeat("x", MaxReqTarget+1)})
	}()
}

// reqFeatureBit records one allocation in a REQ bit namespace.
type reqFeatureBit struct {
	Name string // feature name, for the registry test's diagnostics
	Byte string // namespace: "flags" or "xflags"
	Mask uint8  // the bits the feature occupies (fields span several)
}

// reqFeatureBits is the authoritative allocation table for both REQ bit
// namespaces. Adding a feature bit means adding a constant in features.go
// AND a row here; the registry test cross-checks the two and fails on
// overlap.
var reqFeatureBits = []reqFeatureBit{
	{Name: "push", Byte: "flags", Mask: reqFlagPush},
	{Name: "adaptive", Byte: "flags", Mask: reqFlagAdaptive},
	{Name: "stat", Byte: "flags", Mask: reqFlagStat},
	{Name: "policy", Byte: "flags", Mask: reqPolicyMask << reqPolicyShift},
	{Name: "copy", Byte: "xflags", Mask: reqXflagCopy},
}

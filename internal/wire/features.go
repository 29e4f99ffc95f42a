package wire

// Feature-bit registry for the TypeReq encoding.
//
// The REQ payload has two bit namespaces:
//
//   - flags (byte 14 of the fixed encoding): the original feature byte.
//     It is fully allocated — three flag bits plus the five-bit
//     rate-control policy field — so no new feature can land there
//     without colliding with a shipped decoder.
//   - xflags (first byte of the second trailing extension): the overflow
//     namespace new features allocate from. Old decoders ignore the
//     extension entirely, so an xflags bit degrades to "feature absent"
//     rather than to a misread field.
//
// Every allocated bit is declared here and listed in the registry test's
// table (features_test.go), which fails on overlapping masks and on any
// undeclared flags-byte bit, so two branches cannot silently grab the same
// bit.

// flags-byte allocations (byte 14 of the fixed REQ encoding).
const (
	reqFlagPush     = 1 << 0 // transfer direction: push (MoveTo)
	reqFlagAdaptive = 1 << 1 // rate control on (policy field selects which)
	reqFlagStat     = 1 << 2 // size query only, no transfer

	// Bits 3-7 carry the rate-control policy id as a field, not a flag.
	reqPolicyShift = 3
	reqPolicyMask  = 0x1F
)

// xflags-byte allocations (first byte of the second trailing extension).
const (
	reqXflagCopy = 1 << 0 // third-party copy: push Name to Target
)

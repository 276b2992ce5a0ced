package riscv

import "math/bits"

// Physical Memory Protection, per the RISC-V privileged spec: 16
// entries, each an address register (word-granular) plus a
// configuration byte with R/W/X permissions, an address-matching mode
// and a lock bit. U-mode accesses must match an entry granting the
// permission; locked entries also constrain M-mode. This models the PMP
// unit the project contributed to VexRiscv (§IV-C), which "can be used
// to specify read, write and execute access privileges for a specific
// memory region".

// AccessKind selects the permission being checked.
type AccessKind int

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

// PMP configuration byte fields.
const (
	PmpR = 1 << 0
	PmpW = 1 << 1
	PmpX = 1 << 2
	PmpL = 1 << 7

	// Address-matching modes (bits 3-4).
	PmpOff   = 0
	PmpTOR   = 1
	PmpNA4   = 2
	PmpNAPOT = 3
)

// NumPMPEntries is the implemented entry count.
const NumPMPEntries = 16

// PMP is the protection unit state.
type PMP struct {
	cfg  [NumPMPEntries]uint8
	addr [NumPMPEntries]uint32 // phys >> 2, as architected

	// configured becomes true on the first pmpcfg write; before that
	// the unit is transparent (matches a core with PMP left unprogrammed
	// by boot firmware, which grants full access in M-mode-only setups).
	configured bool

	// Checks counts permission checks performed (for the overhead
	// bench).
	Checks uint64
}

func (p *PMP) readCfg(i int) uint32 {
	base := i * 4
	return uint32(p.cfg[base]) | uint32(p.cfg[base+1])<<8 |
		uint32(p.cfg[base+2])<<16 | uint32(p.cfg[base+3])<<24
}

func (p *PMP) writeCfg(i int, v uint32) bool {
	base := i * 4
	for b := 0; b < 4; b++ {
		nb := uint8(v >> (8 * b))
		// Locked entries are not writable until reset.
		if p.cfg[base+b]&PmpL != 0 {
			continue
		}
		p.cfg[base+b] = nb
	}
	p.configured = true
	return true
}

func (p *PMP) readAddr(i int) uint32 { return p.addr[i] }

func (p *PMP) writeAddr(i int, v uint32) bool {
	// A locked entry's address is frozen; a locked TOR entry also
	// freezes the preceding address register.
	if p.cfg[i]&PmpL != 0 {
		return true
	}
	if i+1 < NumPMPEntries && p.cfg[i+1]&PmpL != 0 && mode(p.cfg[i+1]) == PmpTOR {
		return true
	}
	p.addr[i] = v
	return true
}

func mode(cfg uint8) uint8 { return (cfg >> 3) & 3 }

// Entry returns entry i's configuration byte and address register.
func (p *PMP) Entry(i int) (cfg uint8, addr uint32) { return p.cfg[i], p.addr[i] }

// Check tests an access of size bytes at addr for the given privilege.
func (p *PMP) Check(addr, size uint32, kind AccessKind, priv Priv) bool {
	p.Checks++
	if !p.configured {
		return true
	}
	// Per the privileged spec, the priority (lowest-numbered) entry
	// matching any byte of the access must match every byte, or the
	// access fails irrespective of privilege and permissions — a
	// misaligned store straddling a region boundary must fault even when
	// both halves land in permissive regions. Regions are word-granular
	// and contiguous and an RV32 access spans at most two words, so any
	// region touching the access contains its first or last byte:
	// comparing the two match results covers every byte.
	first := p.matchEntry(addr)
	last := p.matchEntry(addr + size - 1)
	if first != last {
		return false // partial match of the priority entry
	}
	if first < 0 {
		// No entry matched: M-mode succeeds, U-mode fails.
		return priv == PrivM
	}
	cfg := p.cfg[first]
	if priv == PrivM && cfg&PmpL == 0 {
		return true // unlocked entries do not constrain M-mode
	}
	switch kind {
	case AccessRead:
		return cfg&PmpR != 0
	case AccessWrite:
		return cfg&PmpW != 0
	default:
		return cfg&PmpX != 0
	}
}

// matchEntry returns the lowest-numbered entry matching the byte at
// addr, or -1 when none matches.
func (p *PMP) matchEntry(addr uint32) int {
	word := addr >> 2
	for i := 0; i < NumPMPEntries; i++ {
		cfg := p.cfg[i]
		m := mode(cfg)
		if m == PmpOff {
			continue
		}
		var match bool
		switch m {
		case PmpTOR:
			var lo uint32
			if i > 0 {
				lo = p.addr[i-1]
			}
			match = word >= lo && word < p.addr[i]
		case PmpNA4:
			match = word == p.addr[i]
		case PmpNAPOT:
			// Trailing ones in the address encode the region size:
			// region = 2^(3+k) bytes where k = trailing ones + 1.
			ones := uint32(bits.TrailingZeros32(^p.addr[i]))
			mask := ^((uint32(1) << (ones + 1)) - 1)
			match = word&mask == p.addr[i]&mask
		}
		if match {
			return i
		}
	}
	return -1
}

// NAPOTAddr encodes a base/size pair into a pmpaddr register value.
// size must be a power of two >= 8 and base must be size-aligned.
func NAPOTAddr(base, size uint32) uint32 {
	return (base >> 2) | (size>>3 - 1)
}

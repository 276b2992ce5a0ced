//go:build amd64 && !purego

package tensor

import (
	"testing"
	"unsafe"
)

// TestConvPlanesLayoutOffsets holds convPlanesLayout to the field
// offsets the qplane_*_amd64.s bodies read (their L_* defines) and the
// block to its 16 bytes.
func TestConvPlanesLayoutOffsets(t *testing.T) {
	var l convPlanesLayout
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"blocks", unsafe.Offsetof(l.blocks), 0}, {"nblk", unsafe.Offsetof(l.nblk), 8},
		{"recs", unsafe.Offsetof(l.recs), 16}, {"segs", unsafe.Offsetof(l.segs), 24},
		{"ntaps", unsafe.Offsetof(l.ntaps), 32}, {"w", unsafe.Offsetof(l.w), 40},
		{"seed", unsafe.Offsetof(l.seed), 48}, {"req", unsafe.Offsetof(l.req), 56},
		{"tabs", unsafe.Offsetof(l.tabs), 64}, {"inBase", unsafe.Offsetof(l.inBase), 72},
		{"outHW", unsafe.Offsetof(l.outHW), 80}, {"inSample", unsafe.Offsetof(l.inSample), 88},
		{"outC", unsafe.Offsetof(l.outC), 96}, {"segStep", unsafe.Offsetof(l.segStep), 104},
		{"stride", unsafe.Offsetof(l.stride), 112}, {"zpIn", unsafe.Offsetof(l.zpIn), 120},
		{"zpOut", unsafe.Offsetof(l.zpOut), 124}, {"bmasks", unsafe.Offsetof(l.bmasks), 128},
		{"Requant", unsafe.Sizeof(Requant{}), 24}, {"block", unsafe.Sizeof(convPlanesBlock{}), 16},
	} {
		if f.got != f.want {
			t.Errorf("%s at %d, the assembly reads %d", f.name, f.got, f.want)
		}
	}
}

// TestTablesWithoutVBMI reruns the plane-kernel and tile-epilogue checks
// the way an AVX-512 host without VPERMI2B runs them: the bodies leave
// the code tables to a lut8Rows pass after them.
func TestTablesWithoutVBMI(t *testing.T) {
	if !lut8VBMI {
		t.Skip("the tables already run as their own pass here")
	}
	lut8VBMI = false
	defer func() { lut8VBMI = true }()
	TestConvPlanesInt8(t)
	TestRequantTileInt8(t)
}

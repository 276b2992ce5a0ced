//go:build linux

package tensor

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestConvPlanesInt8GuardPages runs the plane kernel on inputs that start
// right after and end right before an inaccessible page, so a body that
// touches a byte outside its input (a border window, a masked-off lane)
// faults instead of reading a neighbour.
func TestConvPlanesInt8GuardPages(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip("mmap:", err)
	}
	defer syscall.Munmap(mem)
	for _, off := range []int{0, 3 * page} {
		if err := syscall.Mprotect(mem[off:off+page], syscall.PROT_NONE); err != nil {
			t.Skip("mprotect:", err)
		}
	}
	codes := unsafe.Slice((*int8)(unsafe.Pointer(&mem[page])), 2*page)
	rng := rand.New(rand.NewSource(53))
	for _, g := range []ConvGeom{
		{InC: 4, InH: 16, InW: 16, OutC: 4, OutH: 16, OutW: 16, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, ICPerG: 1, OCPerG: 1},
		{InC: 3, InH: 9, InW: 9, OutC: 3, OutH: 9, OutW: 9, KH: 5, KW: 5, SH: 1, SW: 1, PH: 2, PW: 2, ICPerG: 1, OCPerG: 1},
		{InC: 4, InH: 16, InW: 16, OutC: 4, OutH: 8, OutW: 8, KH: 5, KW: 5, SH: 2, SW: 2, PH: 2, PW: 2, ICPerG: 1, OCPerG: 1},
		{InC: 2, InH: 8, InW: 7, OutC: 2, OutH: 4, OutW: 4, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, ICPerG: 1, OCPerG: 1},
		{InC: 6, InH: 5, InW: 30, OutC: 3, OutH: 5, OutW: 30, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, ICPerG: 2, OCPerG: 1},
	} {
		c := newConvPlanesCase(rng, g, 2, true)
		n := len(c.x)
		for _, at := range []int{0, len(codes) - n} { // against the lower guard, then the upper one
			x := codes[at : at+n]
			copy(x, c.x)
			c.x = x
			c.check(t, 1, false)
		}
	}
}

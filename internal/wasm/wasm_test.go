package wasm

import (
	"errors"
	"testing"
	"testing/quick"
)

// mustVM builds a single-function module and returns a VM.
func mustVM(t *testing.T, f *Func) *VM {
	t.Helper()
	mod := &Module{Funcs: []*Func{f}, MemPages: 1}
	if err := mod.Prepare(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(mod)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestArithmetic(t *testing.T) {
	a := &Asm{}
	a.Get(0).Get(1).I(OpI32Add)
	a.Get(0).Get(1).I(OpI32Mul)
	a.I(OpI32Sub) // (a+b) - a*b
	a.I(OpReturn)
	vm := mustVM(t, &Func{Name: "f", NumParams: 2, Body: a.Body()})
	got, err := vm.Call(0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7-12 {
		t.Errorf("got %d, want -5", got)
	}
	if _, err := vm.Call(0, 3); err == nil {
		t.Error("call with one argument for two parameters accepted")
	}
	if _, err := vm.Call(1, 3, 4); err == nil {
		t.Error("call to a function past the module accepted")
	}
}

func TestLoopSumsRange(t *testing.T) {
	// sum 1..n: locals 0=n 1=i 2=acc
	a := &Asm{}
	a.Const(1).Set(1)
	a.I(OpBlock)
	a.I(OpLoop)
	// if i >= n+1 break
	a.Get(1).Get(0).Const(1).I(OpI32Add).I(OpI32GeU).Imm(OpBrIf, 1)
	a.Get(2).Get(1).I(OpI32Add).Set(2)
	a.Get(1).Const(1).I(OpI32Add).Tee(1).I(OpDrop)
	a.Imm(OpBr, 0)
	a.I(OpEnd)
	a.I(OpEnd)
	a.Get(2).I(OpReturn)
	vm := mustVM(t, &Func{Name: "sum", NumParams: 1, NumLocals: 2, Body: a.Body()})
	got, err := vm.Call(0, 10)
	if err != nil || got != 55 {
		t.Fatalf("sum(10) = %d, %v", got, err)
	}
	got, err = vm.Call(0, 0)
	if err != nil || got != 0 {
		t.Fatalf("sum(0) = %d, %v", got, err)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	a := &Asm{}
	a.Const(64).Get(0).I(OpI32Store)     // mem[64] = arg
	a.Const(64).I(OpI32Load).I(OpReturn) // return mem[64]
	vm := mustVM(t, &Func{Name: "rt", NumParams: 1, Body: a.Body()})
	got, err := vm.Call(0, -12345)
	if err != nil || got != -12345 {
		t.Fatalf("roundtrip = %d, %v", got, err)
	}
	// The last word is in bounds; one byte further a store or load
	// traps, the static offset included.
	last := &Asm{}
	last.Const(PageSize - 4).Const(7).I(OpI32Store).Const(PageSize - 4).I(OpI32Load).I(OpReturn)
	if got, err := mustVM(t, &Func{Name: "last", Body: last.Body()}).Call(0); err != nil || got != 7 {
		t.Errorf("last word = %d, %v", got, err)
	}
	b := &Asm{}
	b.Const(PageSize-4).Const(1).Imm(OpI32Store, 1).Const(0).I(OpReturn)
	if _, err := mustVM(t, &Func{Name: "oob", Body: b.Body()}).Call(0); !errors.Is(err, ErrTrap) {
		t.Errorf("oob store: %v", err)
	}
	c := &Asm{}
	c.Const(PageSize-4).Imm(OpI32Load, 1).I(OpReturn)
	if _, err := mustVM(t, &Func{Name: "oob", Body: c.Body()}).Call(0); !errors.Is(err, ErrTrap) {
		t.Errorf("oob load: %v", err)
	}
}

func TestByteAccess(t *testing.T) {
	// Linear memory is byte-addressed and little-endian: a word stored
	// at an odd address and one loaded a byte later overlap in three
	// bytes, and the host's ReadU32 sees the same bytes.
	a := &Asm{}
	a.Const(1).Const(0x04030201).I(OpI32Store)
	a.Const(2).I(OpI32Load).I(OpReturn)
	vm := mustVM(t, &Func{Name: "b", Body: a.Body()})
	got, err := vm.Call(0)
	if err != nil || got != 0x040302 {
		t.Fatalf("overlapping load = %#x, %v", got, err)
	}
	if v, err := vm.ReadU32(1); err != nil || v != 0x04030201 {
		t.Errorf("ReadU32(1) = %#x, %v", v, err)
	}
	if _, err := vm.ReadU32(PageSize - 3); !errors.Is(err, ErrTrap) {
		t.Errorf("ReadU32 past the end: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	// Unmatched End.
	bad := &Module{Funcs: []*Func{{Name: "x", Body: []Instr{{Op: OpEnd}}}}}
	if err := bad.Prepare(); err == nil {
		t.Error("unmatched end accepted")
	}
	// Unclosed block.
	bad2 := &Module{Funcs: []*Func{{Name: "x", Body: []Instr{{Op: OpBlock}}}}}
	if err := bad2.Prepare(); err == nil {
		t.Error("unclosed block accepted")
	}
	// Branch depth out of range.
	bad3 := &Module{Funcs: []*Func{{Name: "x", Body: []Instr{
		{Op: OpBlock}, {Op: OpBr, Imm: 5}, {Op: OpEnd},
	}}}}
	if err := bad3.Prepare(); err == nil {
		t.Error("deep branch accepted")
	}
	// An opcode outside the VM's set.
	bad4 := &Module{Funcs: []*Func{{Name: "x", Body: []Instr{{Op: numOps}}}}}
	if err := bad4.Prepare(); err == nil {
		t.Error("invalid opcode accepted")
	}
	// Bad local index.
	bad5 := &Module{Funcs: []*Func{{Name: "x", Body: []Instr{{Op: OpLocalGet, Imm: 3}}}}}
	if err := bad5.Prepare(); err == nil {
		t.Error("bad local accepted")
	}
	// Duplicate name.
	bad6 := &Module{Funcs: []*Func{{Name: "x"}, {Name: "x"}}}
	if err := bad6.Prepare(); err == nil {
		t.Error("duplicate name accepted")
	}
	// Unprepared module.
	if _, err := NewVM(&Module{}); err == nil {
		t.Error("unprepared module instantiated")
	}
}

func TestStackUnderflowDetected(t *testing.T) {
	// Each opcode finds one operand fewer than it pops.
	for _, op := range []Op{OpI32Add, OpI32Store, OpI32Eqz, OpBrIf, OpDrop, OpLocalSet} {
		a := &Asm{}
		a.I(OpBlock)
		for i := 1; i < pops[op]; i++ {
			a.Const(1)
		}
		a.Imm(op, 0).I(OpEnd)
		vm := mustVM(t, &Func{Name: "x", NumLocals: 1, Body: a.Body()})
		if _, err := vm.Call(0); err == nil {
			t.Errorf("stack underflow at op %d not detected", op)
		}
	}
}

func TestArithmeticMatchesGoProperty(t *testing.T) {
	b2i := func(c bool) int32 {
		if c {
			return 1
		}
		return 0
	}
	ops := []struct {
		op Op
		f  func(a, b int32) int32
	}{
		{OpI32Add, func(a, b int32) int32 { return a + b }},
		{OpI32Sub, func(a, b int32) int32 { return a - b }},
		{OpI32Mul, func(a, b int32) int32 { return a * b }},
		{OpI32And, func(a, b int32) int32 { return a & b }},
		{OpI32Ne, func(a, b int32) int32 { return b2i(a != b) }},
		{OpI32GeU, func(a, b int32) int32 { return b2i(uint32(a) >= uint32(b)) }},
	}
	for _, o := range ops {
		a := &Asm{}
		a.Get(0).Get(1).I(o.op).I(OpReturn)
		vm := mustVM(t, &Func{Name: "f", NumParams: 2, Body: a.Body()})
		op := o
		f := func(x, y int32) bool {
			got, err := vm.Call(0, x, y)
			return err == nil && got == op.f(x, y)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("op %d: %v", o.op, err)
		}
	}
	eqz := &Asm{}
	eqz.Get(0).I(OpI32Eqz).I(OpReturn)
	vm := mustVM(t, &Func{Name: "eqz", NumParams: 1, Body: eqz.Body()})
	if err := quick.Check(func(x int32) bool {
		got, err := vm.Call(0, x)
		return err == nil && got == b2i(x == 0)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("eqz: %v", err)
	}
}

package wasm

import (
	"errors"
	"fmt"
)

// ErrTrap wraps guest-visible traps (out-of-bounds memory access).
var ErrTrap = errors.New("wasm: trap")

// VM is one module instance: linear memory plus execution state.
type VM struct {
	mod *Module
	mem []byte

	// Executed counts instructions retired (the interpreter-overhead
	// metric of the Twine study).
	Executed int64
}

// NewVM instantiates a prepared module.
func NewVM(mod *Module) (*VM, error) {
	if !mod.prepared {
		return nil, errors.New("wasm: module not prepared")
	}
	pages := mod.MemPages
	if pages <= 0 {
		pages = 1
	}
	return &VM{mod: mod, mem: make([]byte, pages*PageSize)}, nil
}

// ReadU32 loads a little-endian u32 from linear memory.
func (vm *VM) ReadU32(addr uint32) (uint32, error) {
	if int(addr)+4 > len(vm.mem) {
		return 0, fmt.Errorf("%w: load at %#x", ErrTrap, addr)
	}
	return uint32(vm.mem[addr]) | uint32(vm.mem[addr+1])<<8 |
		uint32(vm.mem[addr+2])<<16 | uint32(vm.mem[addr+3])<<24, nil
}

func (vm *VM) writeU32(addr uint32, v uint32) error {
	if int(addr)+4 > len(vm.mem) {
		return fmt.Errorf("%w: store at %#x", ErrTrap, addr)
	}
	vm.mem[addr] = byte(v)
	vm.mem[addr+1] = byte(v >> 8)
	vm.mem[addr+2] = byte(v >> 16)
	vm.mem[addr+3] = byte(v >> 24)
	return nil
}

// Call invokes a function by index with the given arguments and returns
// its result (functions conceptually return one i32; functions that
// leave nothing on the stack return 0).
func (vm *VM) Call(index int, args ...int32) (int32, error) {
	if index < 0 || index >= len(vm.mod.Funcs) {
		return 0, fmt.Errorf("wasm: call index %d out of range", index)
	}
	f := vm.mod.Funcs[index]
	if len(args) != f.NumParams {
		return 0, fmt.Errorf("wasm: func %q wants %d args, got %d", f.Name, f.NumParams, len(args))
	}

	locals := make([]int32, f.NumParams+f.NumLocals)
	copy(locals, args)
	var stack []int32

	push := func(v int32) { stack = append(stack, v) }
	pop := func() int32 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	ip := 0
	for ip < len(f.Body) {
		vm.Executed++
		ins := f.Body[ip]
		if len(stack) < pops[ins.Op] {
			return 0, fmt.Errorf("wasm: func %q: stack underflow at %d", f.Name, ip)
		}
		switch ins.Op {
		case OpBlock, OpLoop, OpEnd:
			// Structure markers retire as instructions but do nothing.
		case OpBr:
			ip = f.brTarget[ip]
			continue
		case OpBrIf:
			if pop() != 0 {
				ip = f.brTarget[ip]
				continue
			}
		case OpReturn:
			if len(stack) == 0 {
				return 0, nil
			}
			return pop(), nil
		case OpDrop:
			pop()
		case OpLocalGet:
			push(locals[ins.Imm])
		case OpLocalSet:
			locals[ins.Imm] = pop()
		case OpLocalTee:
			locals[ins.Imm] = stack[len(stack)-1]
		case OpI32Const:
			push(ins.Imm)
		case OpI32Load:
			v, err := vm.ReadU32(uint32(pop()) + uint32(ins.Imm))
			if err != nil {
				return 0, err
			}
			push(int32(v))
		case OpI32Store:
			v := pop()
			if err := vm.writeU32(uint32(pop())+uint32(ins.Imm), uint32(v)); err != nil {
				return 0, err
			}
		case OpI32Eqz:
			push(boolVal(pop() == 0))
		default:
			b, a := pop(), pop()
			push(binary(ins.Op, a, b))
		}
		ip++
	}
	if len(stack) > 0 {
		return stack[len(stack)-1], nil
	}
	return 0, nil
}

// binary applies a two-operand opcode.
func binary(op Op, a, b int32) int32 {
	switch op {
	case OpI32Add:
		return a + b
	case OpI32Sub:
		return a - b
	case OpI32Mul:
		return a * b
	case OpI32And:
		return a & b
	case OpI32Ne:
		return boolVal(a != b)
	}
	return boolVal(uint32(a) >= uint32(b)) // OpI32GeU
}

func boolVal(c bool) int32 {
	if c {
		return 1
	}
	return 0
}

// Asm builds function bodies fluently.
type Asm struct {
	body []Instr
}

// I appends an instruction without immediate.
func (a *Asm) I(op Op) *Asm { a.body = append(a.body, Instr{Op: op}); return a }

// Imm appends an instruction with immediate.
func (a *Asm) Imm(op Op, imm int32) *Asm { a.body = append(a.body, Instr{Op: op, Imm: imm}); return a }

// Const pushes a constant.
func (a *Asm) Const(v int32) *Asm { return a.Imm(OpI32Const, v) }

// Get pushes a local.
func (a *Asm) Get(idx int) *Asm { return a.Imm(OpLocalGet, int32(idx)) }

// Set pops into a local.
func (a *Asm) Set(idx int) *Asm { return a.Imm(OpLocalSet, int32(idx)) }

// Tee stores into a local keeping the value on the stack.
func (a *Asm) Tee(idx int) *Asm { return a.Imm(OpLocalTee, int32(idx)) }

// Body returns the assembled instruction slice.
func (a *Asm) Body() []Instr { return a.body }

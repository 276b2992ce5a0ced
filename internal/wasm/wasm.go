// Package wasm implements a small WebAssembly-style stack virtual
// machine: the i32 opcodes the minisql KV module runs, structured
// control flow and bounds-checked linear memory.
//
// It is the trusted-runtime substrate of the paper's §IV-C, which
// builds on "an open-source WebAssembly runtime implementation ... to
// build a trusted runtime environment without dealing with
// language-specific APIs" (Twine [17]). Programs for the VM are
// hand-assembled with the Asm builder (internal/minisql ships a storage
// engine written this way); execution is interpreted and every retired
// instruction counted, so enclave overhead studies get real instruction
// counts. The opcode set is what that storage engine assembles.
package wasm

import (
	"errors"
	"fmt"
)

// Op is a VM opcode.
type Op uint8

// Opcodes (an i32-only subset of the WebAssembly MVP).
const (
	OpBlock Op = iota // label target = matching end
	OpLoop            // label target = loop start
	OpEnd
	OpBr   // Imm = relative label depth
	OpBrIf // Imm = relative label depth
	OpReturn
	OpDrop

	OpLocalGet // Imm = local index
	OpLocalSet
	OpLocalTee

	OpI32Const // Imm = value

	OpI32Load  // Imm = static offset
	OpI32Store // Imm = static offset

	OpI32Add
	OpI32Sub
	OpI32Mul
	OpI32And

	OpI32Eqz
	OpI32Ne
	OpI32GeU
	numOps
)

// pops is how many operands each opcode takes off the stack (Return
// takes its result when there is one).
var pops = [numOps]int{
	OpBrIf: 1, OpDrop: 1, OpLocalSet: 1, OpLocalTee: 1, OpI32Load: 1, OpI32Store: 2,
	OpI32Add: 2, OpI32Sub: 2, OpI32Mul: 2, OpI32And: 2, OpI32Eqz: 1, OpI32Ne: 2, OpI32GeU: 2,
}

// Instr is one instruction.
type Instr struct {
	Op  Op
	Imm int32
}

// PageSize is the linear-memory page size.
const PageSize = 65536

// Func is one module function.
type Func struct {
	Name      string
	NumParams int
	NumLocals int // additional locals beyond params
	Body      []Instr

	// branch targets resolved by Module.Prepare: for each instruction
	// index holding Br/BrIf, the destination ip.
	brTarget []int
}

// Module is a compiled unit: functions and a fixed memory size.
type Module struct {
	Funcs    []*Func
	MemPages int

	prepared bool
	byName   map[string]int
}

// FuncIndex returns the call index of a named module function.
func (m *Module) FuncIndex(name string) (int, error) {
	if idx, ok := m.byName[name]; ok {
		return idx, nil
	}
	return 0, fmt.Errorf("wasm: no function %q", name)
}

// Prepare validates the module and resolves structured control flow to
// jump targets. It must be called once before instantiation.
func (m *Module) Prepare() error {
	m.byName = make(map[string]int, len(m.Funcs))
	for i, f := range m.Funcs {
		if f.Name != "" {
			if _, dup := m.byName[f.Name]; dup {
				return fmt.Errorf("wasm: duplicate function %q", f.Name)
			}
			m.byName[f.Name] = i
		}
		if err := prepareFunc(f); err != nil {
			return fmt.Errorf("wasm: func %q: %w", f.Name, err)
		}
	}
	m.prepared = true
	return nil
}

type ctrlFrame struct {
	isLoop bool
	start  int // instruction index of Block/Loop
	end    int // resolved index of matching End
}

func prepareFunc(f *Func) error {
	f.brTarget = make([]int, len(f.Body))
	var stack []ctrlFrame

	// First pass: match Block/Loop with End.
	ends := make([]int, len(f.Body)) // for each Block/Loop ip, the End ip
	var open []int
	for ip, ins := range f.Body {
		switch ins.Op {
		case OpBlock, OpLoop:
			open = append(open, ip)
		case OpEnd:
			if len(open) == 0 {
				return fmt.Errorf("unmatched end at %d", ip)
			}
			start := open[len(open)-1]
			open = open[:len(open)-1]
			ends[start] = ip
		}
		if ins.Op >= numOps {
			return fmt.Errorf("invalid opcode %d at %d", ins.Op, ip)
		}
	}
	if len(open) != 0 {
		return errors.New("unclosed block")
	}

	// Second pass: resolve branches against the control stack.
	for ip, ins := range f.Body {
		switch ins.Op {
		case OpBlock:
			stack = append(stack, ctrlFrame{isLoop: false, start: ip, end: ends[ip]})
		case OpLoop:
			stack = append(stack, ctrlFrame{isLoop: true, start: ip, end: ends[ip]})
		case OpEnd:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		case OpBr, OpBrIf:
			depth := int(ins.Imm)
			if depth < 0 || depth >= len(stack) {
				return fmt.Errorf("branch depth %d at %d exceeds nesting %d", depth, ip, len(stack))
			}
			frame := stack[len(stack)-1-depth]
			if frame.isLoop {
				f.brTarget[ip] = frame.start + 1 // continue: after the Loop op
			} else {
				f.brTarget[ip] = frame.end + 1 // break: after the End
			}
		case OpLocalGet, OpLocalSet, OpLocalTee:
			if int(ins.Imm) < 0 || int(ins.Imm) >= f.NumParams+f.NumLocals {
				return fmt.Errorf("local %d out of range at %d", ins.Imm, ip)
			}
		}
	}
	return nil
}

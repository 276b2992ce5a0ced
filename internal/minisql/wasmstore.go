package minisql

import (
	"fmt"

	"vedliot/internal/wasm"
)

// WasmStore keeps a table's data plane inside the wasm VM: the storage
// engine is an open-addressing hash table hand-assembled for the VM
// (functions init/put/find over linear memory). It holds the key/value
// table shape of the Twine benchmark — two INT columns with the first
// as PRIMARY KEY — mirroring the paper's "database fully executed
// inside the runtime" setup.
type WasmStore struct {
	vm            *wasm.VM
	fnPut, fnFind int
}

// KV hash-table layout inside VM linear memory.
const (
	kvHdrCap   = 0 // capacity (power of two)
	kvHdrCount = 4
	kvSlots    = 8  // first slot offset
	kvSlotSize = 12 // key, used-flag, value
)

// hash constant (Knuth multiplicative, as i32).
const kvHashMul = -1640531535

// buildKVModule assembles the hash-table module.
func buildKVModule() (*wasm.Module, error) {
	mod := &wasm.Module{MemPages: 4}

	// init(cap): header = {cap, 0}.
	initA := &wasm.Asm{}
	initA.Const(kvHdrCap).Get(0).I(wasm.OpI32Store)
	initA.Const(kvHdrCount).Const(0).I(wasm.OpI32Store)
	initA.Const(0).I(wasm.OpReturn)

	// put(k, v) -> 1 new, 2 replaced.
	// locals: 0=k 1=v 2=cap 3=idx 4=addr 5=mode 6=used
	putA := &wasm.Asm{}
	putA.Const(kvHdrCap).I(wasm.OpI32Load).Set(2)
	// idx = (k * hashMul) & (cap - 1)
	putA.Get(0).Const(kvHashMul).I(wasm.OpI32Mul).Get(2).Const(1).I(wasm.OpI32Sub).I(wasm.OpI32And).Set(3)
	putA.I(wasm.OpBlock) // A
	putA.I(wasm.OpLoop)  // B
	// addr = kvSlots + idx*kvSlotSize
	putA.Get(3).Const(kvSlotSize).I(wasm.OpI32Mul).Const(kvSlots).I(wasm.OpI32Add).Set(4)
	putA.Get(4).Imm(wasm.OpI32Load, 4).Set(6) // used flag
	// if used == 0: mode = 1; break A.
	putA.I(wasm.OpBlock) // C
	putA.Get(6).Imm(wasm.OpBrIf, 0)
	putA.Const(1).Set(5)
	putA.Imm(wasm.OpBr, 2) // to end of A
	putA.I(wasm.OpEnd)     // C
	// if used == 1 && key == k: mode = 2; break A.
	putA.I(wasm.OpBlock) // D
	putA.Get(6).Const(1).I(wasm.OpI32Ne).Imm(wasm.OpBrIf, 0)
	putA.Get(4).I(wasm.OpI32Load).Get(0).I(wasm.OpI32Ne).Imm(wasm.OpBrIf, 0)
	putA.Const(2).Set(5)
	putA.Imm(wasm.OpBr, 2)
	putA.I(wasm.OpEnd) // D
	// idx = (idx + 1) & (cap - 1); continue.
	putA.Get(3).Const(1).I(wasm.OpI32Add).Get(2).Const(1).I(wasm.OpI32Sub).I(wasm.OpI32And).Set(3)
	putA.Imm(wasm.OpBr, 0)
	putA.I(wasm.OpEnd) // B
	putA.I(wasm.OpEnd) // A
	// Write the slot: key, used=1, value.
	putA.Get(4).Get(0).I(wasm.OpI32Store)
	putA.Get(4).Get(0).I(wasm.OpI32Store) // key at offset 0 (idempotent)
	putA.Get(4).Const(1).Imm(wasm.OpI32Store, 4)
	putA.Get(4).Get(1).Imm(wasm.OpI32Store, 8)
	// if mode == 1: count++.
	putA.I(wasm.OpBlock)
	putA.Get(5).Const(1).I(wasm.OpI32Ne).Imm(wasm.OpBrIf, 0)
	putA.Const(kvHdrCount).Const(kvHdrCount).I(wasm.OpI32Load).Const(1).I(wasm.OpI32Add).I(wasm.OpI32Store)
	putA.I(wasm.OpEnd)
	putA.Get(5).I(wasm.OpReturn)

	// find(k) -> slot address or 0.
	// locals: 0=k 1=cap 2=idx 3=addr 4=ret 5=steps 6=used
	findA := &wasm.Asm{}
	findA.Const(kvHdrCap).I(wasm.OpI32Load).Set(1)
	findA.Get(0).Const(kvHashMul).I(wasm.OpI32Mul).Get(1).Const(1).I(wasm.OpI32Sub).I(wasm.OpI32And).Set(2)
	findA.I(wasm.OpBlock) // A
	findA.I(wasm.OpLoop)  // B
	findA.Get(2).Const(kvSlotSize).I(wasm.OpI32Mul).Const(kvSlots).I(wasm.OpI32Add).Set(3)
	findA.Get(3).Imm(wasm.OpI32Load, 4).Set(6)
	// empty slot ends the probe (ret stays 0).
	findA.Get(6).I(wasm.OpI32Eqz).Imm(wasm.OpBrIf, 1)
	// live slot with matching key: ret = addr; break.
	findA.I(wasm.OpBlock) // C
	findA.Get(6).Const(1).I(wasm.OpI32Ne).Imm(wasm.OpBrIf, 0)
	findA.Get(3).I(wasm.OpI32Load).Get(0).I(wasm.OpI32Ne).Imm(wasm.OpBrIf, 0)
	findA.Get(3).Set(4)
	findA.Imm(wasm.OpBr, 2)
	findA.I(wasm.OpEnd) // C
	// idx advance; stop after cap probes.
	findA.Get(2).Const(1).I(wasm.OpI32Add).Get(1).Const(1).I(wasm.OpI32Sub).I(wasm.OpI32And).Set(2)
	findA.Get(5).Const(1).I(wasm.OpI32Add).Tee(5).I(wasm.OpDrop)
	findA.Get(5).Get(1).I(wasm.OpI32GeU).Imm(wasm.OpBrIf, 1)
	findA.Imm(wasm.OpBr, 0)
	findA.I(wasm.OpEnd) // B
	findA.I(wasm.OpEnd) // A
	findA.Get(4).I(wasm.OpReturn)

	mod.Funcs = []*wasm.Func{
		{Name: "init", NumParams: 1, NumLocals: 0, Body: initA.Body()},
		{Name: "put", NumParams: 2, NumLocals: 5, Body: putA.Body()},
		{Name: "find", NumParams: 1, NumLocals: 6, Body: findA.Body()},
	}
	if err := mod.Prepare(); err != nil {
		return nil, err
	}
	return mod, nil
}

// kvCapacity is the fixed hash-table capacity (power of two). With
// 12-byte slots this fits comfortably in the module's 4 pages.
const kvCapacity = 16384

// NewWasmStore instantiates the VM-backed store for a KV-shaped schema.
func NewWasmStore(schema Schema) (*WasmStore, error) {
	if len(schema) != 2 || !schema[0].PrimaryKey {
		return nil, fmt.Errorf("minisql: wasm store supports (k INT PRIMARY KEY, v INT) tables only")
	}
	mod, err := buildKVModule()
	if err != nil {
		return nil, err
	}
	vm, err := wasm.NewVM(mod)
	if err != nil {
		return nil, err
	}
	s := &WasmStore{vm: vm}
	fnInit, err := mod.FuncIndex("init")
	if err != nil {
		return nil, err
	}
	if s.fnPut, err = mod.FuncIndex("put"); err != nil {
		return nil, err
	}
	if s.fnFind, err = mod.FuncIndex("find"); err != nil {
		return nil, err
	}
	if _, err := vm.Call(fnInit, kvCapacity); err != nil {
		return nil, err
	}
	return s, nil
}

// WasmFactory is a StoreFactory placing every table in its own VM.
func WasmFactory(schema Schema) (RowStore, error) {
	return NewWasmStore(schema)
}

// VM exposes the underlying VM (the Twine bench reads Executed).
func (s *WasmStore) VM() *wasm.VM { return s.vm }

// Insert implements RowStore: put(k, v), which replaces the value of a
// key already present.
func (s *WasmStore) Insert(row []int64) error {
	if len(row) != 2 || int64(int32(row[0])) != row[0] || int64(int32(row[1])) != row[1] {
		return fmt.Errorf("minisql: wasm store holds (k, v) pairs of 32-bit values, got %v", row)
	}
	_, err := s.vm.Call(s.fnPut, int32(row[0]), int32(row[1]))
	return err
}

// LookupPK implements RowStore: find(k), then the value word of the slot
// it returns.
func (s *WasmStore) LookupPK(pk int64) ([]int64, bool, error) {
	if int64(int32(pk)) != pk {
		return nil, false, nil
	}
	addr, err := s.vm.Call(s.fnFind, int32(pk))
	if err != nil || addr == 0 {
		return nil, false, err
	}
	v, err := s.vm.ReadU32(uint32(addr) + 8)
	if err != nil {
		return nil, false, err
	}
	return []int64{pk, int64(int32(v))}, true, nil
}

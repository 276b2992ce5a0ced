// Package riscv implements an RV32IM emulator with machine and user
// privilege modes, CSRs, traps, a 16-entry Physical Memory Protection
// unit and a Custom Function Unit port.
//
// It reproduces the security substrate of the paper's §IV-C: the PMP
// unit contributed to VexRiscv ("a highly optimized RISC-V Physical
// Memory Protection unit that enables secure processing by limiting the
// physical addresses accessible by software") and the CFU extension the
// project added to Renode (§II-B). The emulator is functional and
// cycle-accounted, which is what the paper's CI-based testing flow
// needs.
package riscv

// Priv is a privilege level.
type Priv uint8

// Privilege levels (S-mode is not implemented; the paper's target is
// small M/U-only devices).
const (
	PrivU Priv = 0
	PrivM Priv = 3
)

// Bus is the memory system the core talks to. Implementations decide
// the address map (see internal/soc).
type Bus interface {
	Read8(addr uint32) (uint8, error)
	Read16(addr uint32) (uint16, error)
	Read32(addr uint32) (uint32, error)
	Write8(addr uint32, v uint8) error
	Write16(addr uint32, v uint16) error
	Write32(addr uint32, v uint32) error
}

// CFU is a tightly CPU-coupled custom function unit reached through the
// custom-0 opcode. Implementations live in internal/cfu.
type CFU interface {
	// Execute performs the operation selected by funct3/funct7 on the
	// two source operands and returns the result.
	Execute(funct3, funct7, rs1, rs2 uint32) (uint32, error)
	// Latency returns the cycle cost of one operation.
	Latency() int
}

// Exception cause codes (mcause values without the interrupt bit) the
// core raises; it raises no misaligned-address traps (causes 0, 4 and
// 6).
const (
	ExcInstrAccessFault = 1
	ExcIllegalInstr     = 2
	ExcBreakpoint       = 3
	ExcLoadAccessFault  = 5
	ExcStoreAccessFault = 7
	ExcECallU           = 8
	ExcECallM           = 11
)

// Core is one RV32IM hart.
type Core struct {
	X   [32]uint32 // integer registers; X[0] hardwired to zero
	PC  uint32
	Bus Bus
	CFU CFU

	priv Priv
	csr  csrFile
	pmp  PMP

	// Cycles accumulates the cycle cost model; Instret counts retired
	// instructions.
	Cycles  uint64
	Instret uint64

	// Halted is set by WFI with no interrupt sources, or externally.
	Halted bool
}

// NewCore creates a core starting at resetPC in M-mode.
func NewCore(bus Bus, resetPC uint32) *Core {
	c := &Core{Bus: bus, PC: resetPC, priv: PrivM}
	c.csr.init()
	return c
}

// Priv returns the current privilege level.
func (c *Core) Priv() Priv { return c.priv }

// PMPUnit exposes the PMP state (read-only use in tests/benches).
func (c *Core) PMPUnit() *PMP { return &c.pmp }

// CSR reads a CSR directly (test/bench introspection).
func (c *Core) CSR(addr uint32) uint32 {
	v, _ := c.csr.read(addr, c)
	return v
}

// cycle cost model, loosely calibrated to a small in-order pipeline
// (VexRiscv-class).
const (
	cycAlu    = 1
	cycMul    = 3
	cycDiv    = 34
	cycMem    = 2
	cycBranch = 2
	cycCsr    = 2
	cycTrap   = 4
)

// Step executes one instruction, handling any trap it raises. The only
// errors returned are bus faults outside trap semantics (simulation
// bugs), not guest-visible exceptions.
func (c *Core) Step() error {
	if c.Halted {
		return nil
	}
	// Instruction fetch, PMP-checked for execute permission.
	if !c.pmp.Check(c.PC, 4, AccessExec, c.priv) {
		c.trap(ExcInstrAccessFault, c.PC)
		return nil
	}
	raw, err := c.Bus.Read32(c.PC)
	if err != nil {
		c.trap(ExcInstrAccessFault, c.PC)
		return nil
	}
	c.X[0] = 0
	nextPC, exc := c.execute(raw)
	c.X[0] = 0
	if exc != nil {
		c.trap(exc.cause, exc.tval)
		return nil
	}
	c.PC = nextPC
	c.Instret++
	return nil
}

// Run steps until the core halts or maxSteps steps execute. Steps, not
// retired instructions, bound the loop so that trap storms (e.g. an
// illegal instruction at an unconfigured mtvec) still terminate.
func (c *Core) Run(maxSteps uint64) error {
	for i := uint64(0); !c.Halted && i < maxSteps; i++ {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// exception carries a pending trap out of execute.
type exception struct {
	cause uint32
	tval  uint32
}

func excf(cause, tval uint32) *exception { return &exception{cause, tval} }

// trap enters M-mode trap handling.
func (c *Core) trap(cause, tval uint32) {
	c.csr.mepc = c.PC
	c.csr.mcause = cause
	c.csr.mtval = tval
	// Save and clear MIE, record previous privilege.
	mie := (c.csr.mstatus >> 3) & 1
	c.csr.mstatus &^= 1 << 3                       // MIE = 0
	c.csr.mstatus = c.csr.mstatus&^(1<<7) | mie<<7 // MPIE = old MIE
	c.csr.mstatus = c.csr.mstatus &^ (3 << 11)
	c.csr.mstatus |= uint32(c.priv) << 11 // MPP
	c.priv = PrivM
	c.PC = c.csr.mtvec &^ 3
	c.Cycles += cycTrap
}

// mret returns from a trap.
func (c *Core) mret() {
	mpie := (c.csr.mstatus >> 7) & 1
	mpp := Priv((c.csr.mstatus >> 11) & 3)
	c.csr.mstatus = c.csr.mstatus&^(1<<3) | mpie<<3 // MIE = MPIE
	c.csr.mstatus |= 1 << 7                         // MPIE = 1
	c.csr.mstatus &^= 3 << 11                       // MPP = U
	if mpp != PrivU {
		mpp = PrivM
	}
	c.priv = mpp
	c.PC = c.csr.mepc
}

func (c *Core) load(addr uint32, size int) (uint32, *exception) {
	var access = AccessRead
	if !c.pmp.Check(addr, uint32(size), access, c.priv) {
		return 0, excf(ExcLoadAccessFault, addr)
	}
	c.Cycles += cycMem
	switch size {
	case 1:
		v, err := c.Bus.Read8(addr)
		if err != nil {
			return 0, excf(ExcLoadAccessFault, addr)
		}
		return uint32(v), nil
	case 2:
		v, err := c.Bus.Read16(addr)
		if err != nil {
			return 0, excf(ExcLoadAccessFault, addr)
		}
		return uint32(v), nil
	default:
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, excf(ExcLoadAccessFault, addr)
		}
		return v, nil
	}
}

func (c *Core) store(addr uint32, size int, v uint32) *exception {
	if !c.pmp.Check(addr, uint32(size), AccessWrite, c.priv) {
		return excf(ExcStoreAccessFault, addr)
	}
	c.Cycles += cycMem
	var err error
	switch size {
	case 1:
		err = c.Bus.Write8(addr, uint8(v))
	case 2:
		err = c.Bus.Write16(addr, uint16(v))
	default:
		err = c.Bus.Write32(addr, v)
	}
	if err != nil {
		return excf(ExcStoreAccessFault, addr)
	}
	return nil
}

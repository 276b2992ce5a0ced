package riscv

// Instruction encoders: the programmatic assembler used to build
// firmware for the simulated SoC (the role Renode's software stack
// plays in the paper's CI flow). Register arguments follow the ABI
// numbering (x0..x31).

// Register aliases for readable firmware. x2-x4 (sp, gp, tp) have none:
// no firmware builder uses them.
const (
	Zero = 0
	RA   = 1
	T0   = 5
	T1   = 6
	T2   = 7
	S0   = 8
	S1   = 9
	A0   = 10
	A1   = 11
	A2   = 12
	A3   = 13
	A4   = 14
	A5   = 15
	A6   = 16
	A7   = 17
	S2   = 18
	S3   = 19
	S4   = 20
	S5   = 21
	S6   = 22
	S7   = 23
	S8   = 24
	S9   = 25
	S10  = 26
	S11  = 27
	T3   = 28
	T4   = 29
	T5   = 30
	T6   = 31
)

func rType(funct7, rs2, rs1, funct3, rd, opcode uint32) uint32 {
	return funct7<<25 | rs2<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

func iType(imm, rs1, funct3, rd, opcode uint32) uint32 {
	return (imm&0xfff)<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

func sType(imm, rs2, rs1, funct3, opcode uint32) uint32 {
	return (imm&0xfe0)<<20 | rs2<<20 | rs1<<15 | funct3<<12 | (imm&0x1f)<<7 | opcode
}

func bType(imm, rs2, rs1, funct3, opcode uint32) uint32 {
	return (imm&0x1000)<<19 | (imm&0x7e0)<<20 | rs2<<20 | rs1<<15 |
		funct3<<12 | (imm&0x1e)<<7 | (imm&0x800)>>4 | opcode
}

func jType(imm, rd, opcode uint32) uint32 {
	return (imm&0x100000)<<11 | (imm&0x7fe)<<20 | (imm&0x800)<<9 |
		(imm & 0xff000) | rd<<7 | opcode
}

// ADDI rd = rs1 + imm (also serves as MV and NOP).
func ADDI(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 0, uint32(rd), 0x13) }

// NOP is ADDI x0, x0, 0.
func NOP() uint32 { return ADDI(0, 0, 0) }

// LUI rd = imm20 << 12.
func LUI(rd int, imm20 uint32) uint32 { return imm20<<12 | uint32(rd)<<7 | 0x37 }

// LI expands to LUI+ADDI loading a full 32-bit constant (always two
// instructions for simple firmware layout).
func LI(rd int, v uint32) []uint32 {
	upper := v >> 12
	lower := v & 0xfff
	if lower >= 0x800 {
		upper++ // ADDI sign-extends; compensate
	}
	return []uint32{LUI(rd, upper&0xfffff), ADDI(rd, rd, int32(lower<<20)>>20)}
}

// Arithmetic register ops.

// ADD rd = rs1 + rs2.
func ADD(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 0, uint32(rd), 0x33) }

// SUB rd = rs1 - rs2.
func SUB(rd, rs1, rs2 int) uint32 { return rType(0x20, uint32(rs2), uint32(rs1), 0, uint32(rd), 0x33) }

// SLL rd = rs1 << rs2.
func SLL(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 1, uint32(rd), 0x33) }

// SRL rd = rs1 >> rs2 (logical).
func SRL(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 5, uint32(rd), 0x33) }

// SRA rd = rs1 >> rs2 (arithmetic).
func SRA(rd, rs1, rs2 int) uint32 { return rType(0x20, uint32(rs2), uint32(rs1), 5, uint32(rd), 0x33) }

// SLLI rd = rs1 << shamt.
func SLLI(rd, rs1 int, shamt uint32) uint32 {
	return iType(shamt&0x1f, uint32(rs1), 1, uint32(rd), 0x13)
}

// OR rd = rs1 | rs2.
func OR(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 6, uint32(rd), 0x33) }

// SLTU rd = rs1 < rs2 (unsigned).
func SLTU(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 3, uint32(rd), 0x33) }

// MUL rd = rs1 * rs2.
func MUL(rd, rs1, rs2 int) uint32 { return rType(1, uint32(rs2), uint32(rs1), 0, uint32(rd), 0x33) }

// MULH rd = upper 32 bits of signed product.
func MULH(rd, rs1, rs2 int) uint32 { return rType(1, uint32(rs2), uint32(rs1), 1, uint32(rd), 0x33) }

// Memory.

// LW rd = mem32[rs1+imm].
func LW(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 2, uint32(rd), 0x03) }

// LB rd = sign-extended mem8[rs1+imm].
func LB(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 0, uint32(rd), 0x03) }

// SW mem32[rs1+imm] = rs2.
func SW(rs2, rs1 int, imm int32) uint32 { return sType(uint32(imm), uint32(rs2), uint32(rs1), 2, 0x23) }

// SB mem8[rs1+imm] = rs2.
func SB(rs2, rs1 int, imm int32) uint32 { return sType(uint32(imm), uint32(rs2), uint32(rs1), 0, 0x23) }

// Control flow.

// JAL rd = pc+4; pc += offset.
func JAL(rd int, offset int32) uint32 { return jType(uint32(offset), uint32(rd), 0x6f) }

// JALR rd = pc+4; pc = rs1 + imm.
func JALR(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 0, uint32(rd), 0x67) }

// BEQ branches when rs1 == rs2.
func BEQ(rs1, rs2 int, offset int32) uint32 {
	return bType(uint32(offset), uint32(rs2), uint32(rs1), 0, 0x63)
}

// BNE branches when rs1 != rs2.
func BNE(rs1, rs2 int, offset int32) uint32 {
	return bType(uint32(offset), uint32(rs2), uint32(rs1), 1, 0x63)
}

// BLT branches when rs1 < rs2 (signed).
func BLT(rs1, rs2 int, offset int32) uint32 {
	return bType(uint32(offset), uint32(rs2), uint32(rs1), 4, 0x63)
}

// BGE branches when rs1 >= rs2 (signed).
func BGE(rs1, rs2 int, offset int32) uint32 {
	return bType(uint32(offset), uint32(rs2), uint32(rs1), 5, 0x63)
}

// System.

// MRET returns from machine trap.
func MRET() uint32 { return 0x302<<20 | 0x73 }

// WFI halts until interrupt (halts the simulated core).
func WFI() uint32 { return 0x105<<20 | 0x73 }

// CSRRW rd = csr; csr = rs1.
func CSRRW(rd, rs1 int, csr uint32) uint32 { return iType(csr, uint32(rs1), 1, uint32(rd), 0x73) }

// CSRRS rd = csr; csr |= rs1.
func CSRRS(rd, rs1 int, csr uint32) uint32 { return iType(csr, uint32(rs1), 2, uint32(rd), 0x73) }

// CUSTOM0 issues a CFU operation: rd = cfu(funct3, funct7, rs1, rs2).
func CUSTOM0(rd, rs1, rs2 int, funct3, funct7 uint32) uint32 {
	return rType(funct7, uint32(rs2), uint32(rs1), funct3, uint32(rd), 0x0b)
}

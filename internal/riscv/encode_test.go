package riscv

// Encoders for instructions the executor runs but no firmware builder
// emits: the executor tests assemble them.

// AND rd = rs1 & rs2.
func AND(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 7, uint32(rd), 0x33) }

// XOR rd = rs1 ^ rs2.
func XOR(rd, rs1, rs2 int) uint32 { return rType(0, uint32(rs2), uint32(rs1), 4, uint32(rd), 0x33) }

// DIV rd = rs1 / rs2 (signed).
func DIV(rd, rs1, rs2 int) uint32 { return rType(1, uint32(rs2), uint32(rs1), 4, uint32(rd), 0x33) }

// DIVU rd = rs1 / rs2 (unsigned).
func DIVU(rd, rs1, rs2 int) uint32 { return rType(1, uint32(rs2), uint32(rs1), 5, uint32(rd), 0x33) }

// REM rd = rs1 % rs2 (signed).
func REM(rd, rs1, rs2 int) uint32 { return rType(1, uint32(rs2), uint32(rs1), 6, uint32(rd), 0x33) }

// REMU rd = rs1 % rs2 (unsigned).
func REMU(rd, rs1, rs2 int) uint32 { return rType(1, uint32(rs2), uint32(rs1), 7, uint32(rd), 0x33) }

// LBU rd = zero-extended mem8[rs1+imm].
func LBU(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 4, uint32(rd), 0x03) }

// LH rd = sign-extended mem16[rs1+imm].
func LH(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 1, uint32(rd), 0x03) }

// LHU rd = zero-extended mem16[rs1+imm].
func LHU(rd, rs1 int, imm int32) uint32 { return iType(uint32(imm), uint32(rs1), 5, uint32(rd), 0x03) }

// SH mem16[rs1+imm] = rs2.
func SH(rs2, rs1 int, imm int32) uint32 { return sType(uint32(imm), uint32(rs2), uint32(rs1), 1, 0x23) }

// ECALL raises an environment call.
func ECALL() uint32 { return 0x73 }

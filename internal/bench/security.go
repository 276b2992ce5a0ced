package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"vedliot/internal/attest"
	"vedliot/internal/cfu"
	"vedliot/internal/minisql"
	"vedliot/internal/riscv"
	"vedliot/internal/soc"
	"vedliot/internal/tee"
)

// twineWorkload runs the Twine KV workload (inserts then point lookups)
// against a minisql database through the full SQL path (parse + plan +
// execute, as SQLite would) and returns wall time plus accounted enclave
// overhead. When an enclave is supplied, each statement crosses the
// boundary once — Twine keeps the database engine resident inside the
// enclave, so the SQL statement is the transition granularity.
func twineWorkload(db *minisql.DB, enclave *tee.Enclave, n int) (time.Duration, time.Duration, error) {
	exec := func(sql string) (*minisql.Result, error) {
		if enclave == nil {
			return db.Exec(sql)
		}
		var res *minisql.Result
		err := enclave.Ecall(int64(len(sql)), func() error {
			var e error
			res, e = db.Exec(sql)
			return e
		})
		return res, err
	}
	if _, err := exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 1; i <= n; i++ {
		if _, err := exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*3)); err != nil {
			return 0, 0, err
		}
	}
	for i := 1; i <= n; i++ {
		res, err := exec(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i))
		if err != nil {
			return 0, 0, err
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(i*3) {
			return 0, 0, fmt.Errorf("twine: wrong lookup result for key %d", i)
		}
	}
	wall := time.Since(start)
	var overhead time.Duration
	if enclave != nil {
		overhead = time.Duration(enclave.OverheadNS())
	}
	return wall, overhead, nil
}

// Twine reproduces the §IV-C database-in-enclave study: the same SQL
// workload on (1) the native store, (2) the WASM-VM store, and (3) the
// WASM store inside an enclave, every statement charged one ecall.
func Twine() (*Report, error) {
	r := newReport("§IV-C — minisql native vs WASM vs WASM+enclave (Twine)")
	const (
		n     = 4000
		tries = 3 // min-of-3 wall times, robust to scheduler noise
	)

	minWall := func(run func() (time.Duration, time.Duration, error)) (time.Duration, time.Duration, error) {
		best, bestOver := time.Duration(1<<62), time.Duration(0)
		for i := 0; i < tries; i++ {
			w, over, err := run()
			if err != nil {
				return 0, 0, err
			}
			if w < best {
				best, bestOver = w, over
			}
		}
		return best, bestOver, nil
	}

	// Native.
	nativeWall, _, err := minWall(func() (time.Duration, time.Duration, error) {
		return twineWorkload(minisql.NewDB(nil), nil, n)
	})
	if err != nil {
		return nil, err
	}

	// WASM.
	var wasmStore *minisql.WasmStore
	factory := func(schema minisql.Schema) (minisql.RowStore, error) {
		s, err := minisql.NewWasmStore(schema)
		if err != nil {
			return nil, err
		}
		wasmStore = s
		return s, nil
	}
	wasmWall, _, err := minWall(func() (time.Duration, time.Duration, error) {
		return twineWorkload(minisql.NewDB(factory), nil, n)
	})
	if err != nil {
		return nil, err
	}
	wasmInstr := wasmStore.VM().Executed

	// WASM + enclave: the engine is resident in the enclave; each SQL
	// statement is one ecall. The transition overhead is accounted
	// deterministically, so only the wall component carries noise.
	enclave := tee.NewEnclave([]byte("minisql-wasm-v1"))
	encWall, _, err := minWall(func() (time.Duration, time.Duration, error) {
		return twineWorkload(minisql.NewDB(minisql.WasmFactory), enclave, n)
	})
	if err != nil {
		return nil, err
	}
	encOverhead := time.Duration(enclave.OverheadNS()) / tries
	encTotal := encWall + encOverhead

	r.linef("workload: %d inserts + %d indexed lookups", n, n)
	r.linef("%-22s %12s %14s", "runtime", "time", "vs native")
	r.linef("%-22s %12v %13.2fx", "native", nativeWall, 1.0)
	r.linef("%-22s %12v %13.2fx", "wasm", wasmWall, float64(wasmWall)/float64(nativeWall))
	r.linef("%-22s %12v %13.2fx", "wasm+sgx (accounted)", encTotal, float64(encTotal)/float64(nativeWall))
	r.linef("wasm interpreter executed %d instructions; enclave ecalls %d, overhead %v",
		wasmInstr, enclave.Ecalls(), encOverhead)

	// The SQL front end dominates both native and wasm runs, so their
	// wall times can sit within scheduler noise of each other; the
	// deterministic assertions are that the data plane really executed
	// in the VM and that the accounted enclave total tops the stack.
	r.check("wasm data plane really interpreted (>100k instructions)", wasmInstr > 100_000)
	r.check("wasm within noise of or slower than native", float64(wasmWall) > 0.7*float64(nativeWall))
	r.check("wasm+sgx is the slowest configuration", encTotal > wasmWall && encTotal > nativeWall)
	// Twine's claim: the *enclave* adds small overhead on top of WASM
	// (the interpretation itself dominates).
	sgxOnWasm := float64(encTotal) / float64(wasmWall)
	r.linef("enclave overhead on top of wasm: %.2fx", sgxOnWasm)
	// Twine reports ~1.5-2x typical, up to ~4x worst-case per query.
	r.check("enclave adds < 4x on top of wasm", sgxOnWasm < 4)
	return r, nil
}

// AblationEcallBatching shows why Twine-style runtimes batch enclave
// transitions: per-operation ecalls versus one ecall per 64 operations.
func AblationEcallBatching() (*Report, error) {
	r := newReport("Ablation — enclave transition batching")
	const ops = 10000
	perOp := tee.NewEnclave([]byte("x"))
	for i := 0; i < ops; i++ {
		_ = perOp.Ecall(16, func() error { return nil })
	}
	batched := tee.NewEnclave([]byte("x"))
	for i := 0; i < ops; i += 64 {
		_ = batched.Ecall(16*64, func() error { return nil })
	}
	r.linef("%d ops, per-op ecalls:   overhead %v", ops, time.Duration(perOp.OverheadNS()))
	r.linef("%d ops, 64-op batches:   overhead %v", ops, time.Duration(batched.OverheadNS()))
	r.linef("batching saves %.1fx", float64(perOp.OverheadNS())/float64(batched.OverheadNS()))
	r.check("batching reduces overhead >= 5x", perOp.OverheadNS() > 5*batched.OverheadNS())
	return r, nil
}

// PMPBench reproduces the VexRiscv PMP evaluation: functional isolation
// (from the riscv tests' semantics) plus the cycle cost of checks and
// violation traps measured on firmware.
func PMPBench() (*Report, error) {
	r := newReport("§IV-C — RISC-V PMP unit (VexRiscv contribution)")

	// Workload: U-mode loop writing a permitted window; measure cycles
	// with PMP off (M-mode, unconfigured) vs configured.
	run := func(configure bool) (uint64, uint64, error) {
		m, err := soc.NewMachine(soc.Config{Name: "pmp"})
		if err != nil {
			return 0, 0, err
		}
		p := &soc.Program{}
		if configure {
			// Entry 0: all RAM R+W+X for U-mode.
			p.EmitLI(riscv.T0, riscv.NAPOTAddr(soc.RAMBase, 1<<20))
			p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrPmpaddr0))
			p.EmitLI(riscv.T0, uint32(riscv.PmpR|riscv.PmpW|riscv.PmpX|riscv.PmpNAPOT<<3))
			p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrPmpcfg0))
		}
		// Loop: 1000 stores to a scratch word.
		p.EmitLI(riscv.A0, soc.RAMBase+0x8000)
		p.EmitLI(riscv.A1, 1000)
		p.EmitLI(riscv.A2, 0)
		loop := p.PC()
		p.Emit(
			riscv.SW(riscv.A2, riscv.A0, 0),
			riscv.ADDI(riscv.A2, riscv.A2, 1),
		)
		p.Emit(riscv.BLT(riscv.A2, riscv.A1, int32(loop-p.PC())))
		p.Emit(riscv.WFI())
		if err := m.LoadFirmware(p.Words()); err != nil {
			return 0, 0, err
		}
		if _, err := m.Run(200000); err != nil {
			return 0, 0, err
		}
		return m.Core.Cycles, m.Core.PMPUnit().Checks, nil
	}

	offCycles, _, err := run(false)
	if err != nil {
		return nil, err
	}
	onCycles, checks, err := run(true)
	if err != nil {
		return nil, err
	}
	r.linef("1000-store loop: %d cycles unconfigured, %d cycles with PMP (%d checks performed)",
		offCycles, onCycles, checks)
	overhead := float64(onCycles)/float64(offCycles) - 1
	r.linef("PMP cycle overhead: %.1f%% (hardware PMP checks in parallel; the model charges none)", overhead*100)
	r.check("PMP adds no per-access cycle penalty", onCycles <= offCycles+64)
	r.check("checks cover fetches and stores", checks > 2000)

	// Violation path: measure trap cost.
	m, err := soc.NewMachine(soc.Config{Name: "pmp-trap"})
	if err != nil {
		return nil, err
	}
	p := &soc.Program{}
	const handlerOff = 96
	p.EmitLI(riscv.T0, soc.RAMBase+handlerOff)
	p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrMtvec))
	// U-mode may execute the first 4 KiB only (no data window).
	p.EmitLI(riscv.T0, riscv.NAPOTAddr(soc.RAMBase, 4096))
	p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrPmpaddr0))
	p.EmitLI(riscv.T0, uint32(riscv.PmpR|riscv.PmpX|riscv.PmpNAPOT<<3))
	p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrPmpcfg0))
	// Drop to U-mode at uCode.
	uCode := uint32(64)
	p.EmitLI(riscv.T0, soc.RAMBase+uCode)
	p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrMepc))
	p.Emit(riscv.MRET())
	for p.PC() < soc.RAMBase+uCode {
		p.Emit(riscv.NOP())
	}
	// U-mode: attempt a store outside any window -> trap.
	p.EmitLI(riscv.A0, soc.RAMBase+0x10000)
	p.Emit(riscv.SW(riscv.A0, riscv.A0, 0))
	p.Emit(riscv.NOP())
	for p.PC() < soc.RAMBase+handlerOff {
		p.Emit(riscv.NOP())
	}
	p.Emit(riscv.CSRRS(riscv.S2, 0, riscv.CsrMcause))
	p.Emit(riscv.WFI())
	if err := m.LoadFirmware(p.Words()); err != nil {
		return nil, err
	}
	if _, err := m.Run(10000); err != nil {
		return nil, err
	}
	r.linef("U-mode violation trapped with mcause=%d (store access fault)", m.Core.X[riscv.S2])
	r.check("violation traps to M-mode with cause 7", m.Core.X[riscv.S2] == riscv.ExcStoreAccessFault)
	r.check("core back in machine mode", m.Core.Priv() == riscv.PrivM)
	return r, nil
}

// Attestation reproduces the end-to-end remote attestation flow over
// TCP and reports its latency budget.
func Attestation() (*Report, error) {
	r := newReport("§IV-C — end-to-end remote attestation")
	root, err := attest.NewRootOfTrust()
	if err != nil {
		return nil, err
	}
	boot := []attest.BootStage{
		{Name: "bootloader", Image: []byte("bl-1.2")},
		{Name: "op-tee", Image: []byte("optee-3.19")},
		{Name: "monitor", Image: []byte("robustness-monitor-2.0")},
	}
	dev, err := attest.NewDevice("edge-station-1", root, boot)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.linef("loopback networking unavailable (%v); verifying locally", err)
		v := attest.NewVerifier(root.Public(), dev.Measurement())
		nonce := []byte("local-nonce")
		if err := v.Verify(dev.Respond(nonce), nonce); err != nil {
			return nil, err
		}
		r.check("local attestation verifies", true)
		return r, nil
	}
	defer l.Close()
	go attest.Serve(l, dev)

	v := attest.NewVerifier(root.Public(), dev.Measurement())
	const rounds = 20
	var total time.Duration
	for i := 0; i < rounds; i++ {
		_, rtt, err := v.Attest(context.Background(), l.Addr().String(), 5*time.Second)
		if err != nil {
			return nil, err
		}
		total += rtt
	}
	mean := total / rounds
	r.linef("%d attestations over TCP, mean round trip %v", rounds, mean)
	r.check("attestation under 50 ms on loopback", mean < 50*time.Millisecond)

	// Tampered device must fail.
	dev2, err := attest.NewDevice("edge-station-2", root, boot)
	if err != nil {
		return nil, err
	}
	dev2.Tamper()
	nonce := []byte("n2")
	err = v.Verify(dev2.Respond(nonce), nonce)
	r.linef("tampered device verdict: %v", err)
	r.check("tampered device rejected", err != nil)
	return r, nil
}

// CFUBench reproduces the Renode CFU story: an INT8 dot-product kernel
// on the simulated core, scalar RV32IM versus the vector-MAC CFU.
func CFUBench() (*Report, error) {
	r := newReport("§II-B — CFU acceleration on the simulated SoC")
	const elems = 256 // 64 packed words

	buildData := func(m *soc.Machine) error {
		// Fill two arrays with bytes 1..4 repeating at 0x4000/0x5000.
		for i := 0; i < elems/4; i++ {
			if err := m.RAM.Write32(uint32(0x4000+i*4), 0x04030201); err != nil {
				return err
			}
			if err := m.RAM.Write32(uint32(0x5000+i*4), 0x02020202); err != nil {
				return err
			}
		}
		return nil
	}

	// Scalar version: unpack bytes with shifts, multiply-accumulate.
	scalar, err := soc.NewMachine(soc.Config{Name: "scalar"})
	if err != nil {
		return nil, err
	}
	if err := buildData(scalar); err != nil {
		return nil, err
	}
	p := &soc.Program{}
	p.EmitLI(riscv.A0, soc.RAMBase+0x4000) // a
	p.EmitLI(riscv.A1, soc.RAMBase+0x5000) // b
	p.EmitLI(riscv.A2, elems)              // count
	p.EmitLI(riscv.A3, 0)                  // acc
	loop := p.PC()
	p.Emit(
		riscv.LB(riscv.T0, riscv.A0, 0),
		riscv.LB(riscv.T1, riscv.A1, 0),
		riscv.MUL(riscv.T2, riscv.T0, riscv.T1),
		riscv.ADD(riscv.A3, riscv.A3, riscv.T2),
		riscv.ADDI(riscv.A0, riscv.A0, 1),
		riscv.ADDI(riscv.A1, riscv.A1, 1),
		riscv.ADDI(riscv.A2, riscv.A2, -1),
	)
	p.Emit(riscv.BNE(riscv.A2, riscv.Zero, int32(loop-p.PC())))
	p.Emit(riscv.WFI())
	if err := scalar.LoadFirmware(p.Words()); err != nil {
		return nil, err
	}
	if _, err := scalar.Run(1_000_000); err != nil {
		return nil, err
	}
	scalarResult := int32(scalar.Core.X[riscv.A3])
	scalarCycles := scalar.Core.Cycles

	// CFU version: 4 lanes per instruction.
	mac := &cfu.VectorMAC{}
	cfuM, err := soc.NewMachine(soc.Config{Name: "cfu", CFU: mac})
	if err != nil {
		return nil, err
	}
	if err := buildData(cfuM); err != nil {
		return nil, err
	}
	q := &soc.Program{}
	q.EmitLI(riscv.A0, soc.RAMBase+0x4000)
	q.EmitLI(riscv.A1, soc.RAMBase+0x5000)
	q.EmitLI(riscv.A2, elems/4)
	q.Emit(riscv.CUSTOM0(0, 0, 0, 0, 0)) // clear acc
	loop2 := q.PC()
	q.Emit(
		riscv.LW(riscv.T0, riscv.A0, 0),
		riscv.LW(riscv.T1, riscv.A1, 0),
		riscv.CUSTOM0(riscv.A4, riscv.T0, riscv.T1, 1, 0), // mac step
		riscv.ADDI(riscv.A0, riscv.A0, 4),
		riscv.ADDI(riscv.A1, riscv.A1, 4),
		riscv.ADDI(riscv.A2, riscv.A2, -1),
	)
	q.Emit(riscv.BNE(riscv.A2, riscv.Zero, int32(loop2-q.PC())))
	q.Emit(riscv.WFI())
	if err := cfuM.LoadFirmware(q.Words()); err != nil {
		return nil, err
	}
	if _, err := cfuM.Run(1_000_000); err != nil {
		return nil, err
	}
	cfuResult := int32(cfuM.Core.X[riscv.A4])
	cfuCycles := cfuM.Core.Cycles

	speedup := float64(scalarCycles) / float64(cfuCycles)
	r.linef("%d-element INT8 dot product", elems)
	r.linef("scalar RV32IM: result %d, %d cycles", scalarResult, scalarCycles)
	r.linef("vector-MAC CFU: result %d, %d cycles", cfuResult, cfuCycles)
	r.linef("speedup: %.1fx", speedup)
	r.check("results agree", scalarResult == cfuResult)
	r.check("CFU speedup >= 2x", speedup >= 2)
	return r, nil
}

// Package microserver models the RECS hardware platform family
// (§II-A): RECS|Box for the cloud, t.RECS for the near edge and uRECS
// for the embedded/far edge, together with the Computer-on-Module form
// factors of Fig. 2. The model captures what the paper's platform
// delivers: slot compatibility, power budgets, baseboard overheads,
// monitoring, and run-time exchange of heterogeneous compute modules.
package microserver

import (
	"fmt"
	"strings"
)

// FormFactor enumerates the COM standards of Fig. 2.
type FormFactor int

// Form factors, ordered roughly by module size (large to small).
const (
	COMHPCServer FormFactor = iota
	COMHPCClient
	COMExpress
	JetsonAGX
	SMARC
	JetsonNX
	XilinxKria
	RPiCM4
	numFormFactors
)

// String names the form factor.
func (f FormFactor) String() string {
	switch f {
	case COMHPCServer:
		return "COM-HPC Server"
	case COMHPCClient:
		return "COM-HPC Client"
	case COMExpress:
		return "COM Express"
	case JetsonAGX:
		return "Jetson AGX Xavier"
	case SMARC:
		return "SMARC"
	case JetsonNX:
		return "Jetson Xavier NX"
	case XilinxKria:
		return "Xilinx Kria"
	case RPiCM4:
		return "Raspberry Pi CM4"
	}
	return fmt.Sprintf("FormFactor(%d)", int(f))
}

// Rating is an ordinal 1 (lowest) to 5 (highest) score on one Fig. 2
// axis.
type Rating int

// FormFactorProfile captures the five comparison axes of Fig. 2.
// "Size" follows the figure's convention: higher = smaller module.
type FormFactorProfile struct {
	FormFactor    FormFactor
	Size          Rating // higher = more compact
	IOFlexibility Rating
	Performance   Rating
	Architectures Rating // breadth of supported CPU architectures
	MarketShare   Rating
}

// Profiles returns the Fig. 2 comparison data for all form factors.
func Profiles() []FormFactorProfile {
	return []FormFactorProfile{
		{COMHPCServer, 1, 5, 5, 2, 2},
		{COMHPCClient, 2, 4, 4, 2, 2},
		{COMExpress, 2, 4, 4, 3, 5},
		{JetsonAGX, 3, 2, 4, 1, 3},
		{SMARC, 4, 3, 2, 5, 4},
		{JetsonNX, 4, 2, 3, 1, 3},
		{XilinxKria, 4, 3, 3, 2, 2},
		{RPiCM4, 5, 1, 1, 1, 5},
	}
}

// ProfileFor returns the Fig. 2 profile of one form factor.
func ProfileFor(f FormFactor) (FormFactorProfile, error) {
	for _, p := range Profiles() {
		if p.FormFactor == f {
			return p, nil
		}
	}
	return FormFactorProfile{}, fmt.Errorf("microserver: no profile for %v", f)
}

// Arch is a microserver's instruction-set architecture.
type Arch string

// Architectures appearing in the platform.
const (
	ArchX86   Arch = "x86"
	ArchARM   Arch = "arm64"
	ArchFPGA  Arch = "fpga"
	ArchRISCV Arch = "riscv"
)

// Module is one pluggable microserver or accelerator module.
type Module struct {
	Name       string
	FormFactor FormFactor
	Arch       Arch
	IdleW      float64
	MaxW       float64
	MemoryGB   float64
	// Accelerator optionally names a device model from internal/accel.
	Accelerator string
	// SoC optionally names an emulated system-on-chip the module serves
	// with instead of a host engine or accel device model: "vexriscv-cfu"
	// (RISC-V core with the vector-MAC custom function unit) or
	// "vexriscv" (the same core, scalar only). SoC modules execute INT8
	// firmware, so deployments must carry a calibration schema.
	SoC string
}

// Validate checks module plausibility.
func (m *Module) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("microserver: module without name")
	}
	if m.MaxW <= 0 || m.IdleW < 0 || m.IdleW > m.MaxW {
		return fmt.Errorf("microserver: module %s power range [%v, %v] invalid", m.Name, m.IdleW, m.MaxW)
	}
	return nil
}

// Slot is one chassis position.
type Slot struct {
	Index int
	// Accepts lists directly supported form factors.
	Accepts []FormFactor
	// AdapterFor lists form factors supported via adapter PCBs
	// (uRECS integrates Kria and RPi CM4 this way).
	AdapterFor []FormFactor

	module *Module
}

// Module returns the inserted module or nil.
func (s *Slot) Module() *Module { return s.module }

// Powered reports whether the slot is powered: a slot powers on with
// the module inserted into it and off when the module is removed.
func (s *Slot) Powered() bool { return s.module != nil }

func (s *Slot) accepts(f FormFactor) (ok, viaAdapter bool) {
	for _, a := range s.Accepts {
		if a == f {
			return true, false
		}
	}
	for _, a := range s.AdapterFor {
		if a == f {
			return true, true
		}
	}
	return false, false
}

// Chassis is one RECS platform instance.
type Chassis struct {
	Name string
	// Tier labels the computing continuum position: "embedded/far edge",
	// "near edge" or "cloud".
	Tier string
	// BaseboardW is the always-on infrastructure power (fabric, BMC).
	BaseboardW float64
	// BudgetW caps total chassis power (0 = unlimited).
	BudgetW float64
	Slots   []*Slot
	// FabricGbps lists the communication-infrastructure speeds.
	FabricGbps []float64
}

// NewRECSBox builds the cloud-tier RECS|Box: COM Express carriers with
// 1G/10G Ethernet plus high-speed low-latency links.
func NewRECSBox(slots int) *Chassis {
	c := &Chassis{
		Name: "RECS|Box", Tier: "cloud",
		BaseboardW: 40, FabricGbps: []float64{1, 10, 40},
	}
	for i := 0; i < slots; i++ {
		c.Slots = append(c.Slots, &Slot{Index: i, Accepts: []FormFactor{COMExpress}})
	}
	return c
}

// NewTRECS builds the near-edge t.RECS: COM-HPC Server and Client
// modules.
func NewTRECS(slots int) *Chassis {
	c := &Chassis{
		Name: "t.RECS", Tier: "near edge",
		BaseboardW: 15, FabricGbps: []float64{1, 10},
	}
	for i := 0; i < slots; i++ {
		c.Slots = append(c.Slots, &Slot{
			Index:   i,
			Accepts: []FormFactor{COMHPCServer, COMHPCClient},
		})
	}
	return c
}

// NewURECS builds the embedded/far-edge uRECS developed within VEDLIoT:
// compact, low cost, and targeting a power envelope below 15 W. SMARC
// and Jetson Xavier NX modules are native; Xilinx Kria and Raspberry Pi
// compute modules attach via adapter PCBs; USB/M.2 extension slots take
// additional accelerators.
func NewURECS() *Chassis {
	c := &Chassis{
		Name: "uRECS", Tier: "embedded/far edge",
		BaseboardW: 1.5, BudgetW: 15, FabricGbps: []float64{1},
	}
	for i := 0; i < 2; i++ {
		c.Slots = append(c.Slots, &Slot{
			Index:      i,
			Accepts:    []FormFactor{SMARC, JetsonNX},
			AdapterFor: []FormFactor{XilinxKria, RPiCM4},
		})
	}
	// USB / M.2 extension positions for accelerator sticks.
	c.Slots = append(c.Slots, &Slot{Index: 2, Accepts: []FormFactor{RPiCM4}, AdapterFor: nil})
	return c
}

// Insert places a module in slot idx, validating form-factor
// compatibility and the chassis power budget. The slot powers on.
func (c *Chassis) Insert(idx int, m *Module) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if idx < 0 || idx >= len(c.Slots) {
		return fmt.Errorf("microserver: %s has no slot %d", c.Name, idx)
	}
	slot := c.Slots[idx]
	if slot.module != nil {
		return fmt.Errorf("microserver: slot %d occupied by %s", idx, slot.module.Name)
	}
	ok, _ := slot.accepts(m.FormFactor)
	if !ok {
		return fmt.Errorf("microserver: slot %d of %s does not accept %v", idx, c.Name, m.FormFactor)
	}
	// The budget bounds the compute-module envelope; baseboard overhead
	// is reported separately by MaxPowerW/PowerW.
	if c.BudgetW > 0 && c.modulePowerW()+m.MaxW > c.BudgetW {
		return fmt.Errorf("microserver: inserting %s (%.1f W) exceeds %s module budget %.1f W (current %.1f W)",
			m.Name, m.MaxW, c.Name, c.BudgetW, c.modulePowerW())
	}
	slot.module = m
	return nil
}

// Mount finds each named catalogue module and inserts them into
// consecutive slots from slot 0, returning them in slot order. Blank
// names (as a comma-separated flag splits) are skipped. On an error the
// modules already mounted are returned with it.
func (c *Chassis) Mount(names ...string) ([]*Module, error) {
	var mods []*Module
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := FindModule(name)
		if err != nil {
			return mods, err
		}
		if err := c.Insert(len(mods), m); err != nil {
			return mods, err
		}
		mods = append(mods, m)
	}
	return mods, nil
}

// Remove extracts the module from slot idx (run-time exchange of
// computing resources).
func (c *Chassis) Remove(idx int) (*Module, error) {
	if idx < 0 || idx >= len(c.Slots) {
		return nil, fmt.Errorf("microserver: %s has no slot %d", c.Name, idx)
	}
	slot := c.Slots[idx]
	if slot.module == nil {
		return nil, fmt.Errorf("microserver: slot %d empty", idx)
	}
	m := slot.module
	slot.module = nil
	return m, nil
}

// MaxPowerW returns worst-case chassis power with all powered modules at
// full load.
func (c *Chassis) MaxPowerW() float64 {
	return c.BaseboardW + c.modulePowerW()
}

// modulePowerW sums the worst-case power of all powered modules.
func (c *Chassis) modulePowerW() float64 {
	var p float64
	for _, s := range c.Slots {
		if s.Powered() {
			p += s.module.MaxW
		}
	}
	return p
}

// PowerW returns chassis power given a per-slot utilization map in
// [0,1]; missing slots idle.
func (c *Chassis) PowerW(util map[int]float64) float64 {
	p := c.BaseboardW
	for _, s := range c.Slots {
		if !s.Powered() {
			continue
		}
		u := util[s.Index]
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		p += s.module.IdleW + u*(s.module.MaxW-s.module.IdleW)
	}
	return p
}

// Monitoring is one telemetry snapshot, the substrate for the
// VEDLIoT monitoring middleware.
type Monitoring struct {
	Chassis string
	TotalW  float64
	PerSlot []SlotReading
}

// SlotReading is one slot's telemetry.
type SlotReading struct {
	Slot    int
	Module  string
	Powered bool
	PowerW  float64
	TempC   float64
}

// Snapshot produces a monitoring reading for the given utilization.
// Temperature follows a simple thermal model: 25C ambient plus 2C per
// watt of module dissipation.
func (c *Chassis) Snapshot(util map[int]float64) Monitoring {
	m := Monitoring{Chassis: c.Name, TotalW: c.PowerW(util)}
	for _, s := range c.Slots {
		r := SlotReading{Slot: s.Index}
		if s.Powered() {
			r.Module = s.module.Name
			r.Powered = true
			u := util[s.Index]
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			r.PowerW = s.module.IdleW + u*(s.module.MaxW-s.module.IdleW)
			r.TempC = 25 + 2*r.PowerW
		} else {
			r.TempC = 25
		}
		m.PerSlot = append(m.PerSlot, r)
	}
	return m
}

// StandardModules returns a catalogue of module definitions matching the
// paper's Fig. 1/Fig. 2 hardware matrix.
func StandardModules() []*Module {
	return []*Module{
		{Name: "COM-HPC Server x86", FormFactor: COMHPCServer, Arch: ArchX86, IdleW: 35, MaxW: 150, MemoryGB: 128},
		{Name: "COM-HPC Xilinx ZU+", FormFactor: COMHPCClient, Arch: ArchFPGA, IdleW: 8, MaxW: 40, MemoryGB: 16, Accelerator: "ZU15 2xB4096"},
		{Name: "COM Express Xeon-D", FormFactor: COMExpress, Arch: ArchX86, IdleW: 25, MaxW: 45, MemoryGB: 64, Accelerator: "D1577"},
		{Name: "COM Express EPYC", FormFactor: COMExpress, Arch: ArchX86, IdleW: 35, MaxW: 100, MemoryGB: 64, Accelerator: "Epic3451"},
		{Name: "Jetson AGX Xavier", FormFactor: JetsonAGX, Arch: ArchARM, IdleW: 10, MaxW: 30, MemoryGB: 32, Accelerator: "Xavier AGX (HP)"},
		// The NX module is catalogued at its 10 W preset, the profile a
		// power-constrained uRECS runs it in.
		{Name: "Jetson Xavier NX", FormFactor: JetsonNX, Arch: ArchARM, IdleW: 3, MaxW: 10, MemoryGB: 8, Accelerator: "Xavier NX"},
		{Name: "SMARC ARM", FormFactor: SMARC, Arch: ArchARM, IdleW: 1, MaxW: 3, MemoryGB: 4},
		{Name: "SMARC FPGA-SoC", FormFactor: SMARC, Arch: ArchFPGA, IdleW: 3, MaxW: 9, MemoryGB: 4, Accelerator: "ZU3 B2304"},
		{Name: "Xilinx Kria K26", FormFactor: XilinxKria, Arch: ArchFPGA, IdleW: 2, MaxW: 5, MemoryGB: 4, Accelerator: "ZU3 B2304"},
		{Name: "RPi CM4", FormFactor: RPiCM4, Arch: ArchARM, IdleW: 1.5, MaxW: 7, MemoryGB: 8},
		{Name: "Coral SoM", FormFactor: RPiCM4, Arch: ArchARM, IdleW: 0.5, MaxW: 2, MemoryGB: 1, Accelerator: "EdgeTPU SoM"},
		// The far-edge RISC-V tier: a CM4-form-factor carrier for the
		// emulated VexRiscv-class SoC with the vector-MAC CFU (§II-B),
		// serving INT8 models through cycle-accurate firmware.
		{Name: "RISC-V CFU SoM", FormFactor: RPiCM4, Arch: ArchRISCV, IdleW: 0.2, MaxW: 1, MemoryGB: 0.25, SoC: "vexriscv-cfu"},
	}
}

// FindModule returns the named catalogue module.
func FindModule(name string) (*Module, error) {
	for _, m := range StandardModules() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("microserver: unknown module %q", name)
}

package microserver

import (
	"strings"
	"testing"

	"vedliot/internal/accel"
)

func TestProfilesCoverAllFormFactors(t *testing.T) {
	seen := map[FormFactor]bool{}
	for _, p := range Profiles() {
		seen[p.FormFactor] = true
		for _, r := range []Rating{p.Size, p.IOFlexibility, p.Performance, p.Architectures, p.MarketShare} {
			if r < 1 || r > 5 {
				t.Errorf("%v has rating %d outside 1-5", p.FormFactor, r)
			}
		}
	}
	for f := FormFactor(0); f < numFormFactors; f++ {
		if !seen[f] {
			t.Errorf("no profile for %v", f)
		}
		if strings.HasPrefix(f.String(), "FormFactor(") {
			t.Errorf("form factor %d unnamed", int(f))
		}
	}
}

func TestFig2Ordering(t *testing.T) {
	// Structural facts from Fig. 2: COM-HPC Server is the largest and
	// most performant; RPi CM4 the smallest with lowest performance;
	// SMARC supports the broadest architecture set.
	get := func(f FormFactor) FormFactorProfile {
		p, err := ProfileFor(f)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if !(get(COMHPCServer).Size < get(RPiCM4).Size) {
		t.Error("COM-HPC Server should be larger (lower size rating) than RPi CM4")
	}
	if !(get(COMHPCServer).Performance > get(RPiCM4).Performance) {
		t.Error("COM-HPC Server should outperform RPi CM4")
	}
	best := get(SMARC).Architectures
	for _, p := range Profiles() {
		if p.Architectures > best {
			t.Errorf("%v exceeds SMARC architecture breadth", p.FormFactor)
		}
	}
}

func TestURECSAcceptsAndRejects(t *testing.T) {
	u := NewURECS()
	nx, err := FindModule("Jetson Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Insert(0, nx); err != nil {
		t.Fatalf("uRECS rejected Jetson NX: %v", err)
	}
	// Kria via adapter.
	kria, _ := FindModule("Xilinx Kria K26")
	if err := u.Insert(1, kria); err != nil {
		t.Fatalf("uRECS rejected Kria adapter: %v", err)
	}
	// COM-HPC must not fit.
	hpc, _ := FindModule("COM-HPC Server x86")
	if err := u.Insert(2, hpc); err == nil {
		t.Error("uRECS accepted COM-HPC Server")
	}
	// Occupied slot.
	if err := u.Insert(0, kria); err == nil {
		t.Error("insert into occupied slot succeeded")
	}
	// Invalid slot.
	if err := u.Insert(9, kria); err == nil {
		t.Error("insert into invalid slot succeeded")
	}
}

func TestURECSPowerBudget(t *testing.T) {
	// uRECS targets < 15 W; inserting two 15 W Jetson NX modules must
	// fail on the second.
	u := NewURECS()
	nx1, _ := FindModule("Jetson Xavier NX")
	nx2, _ := FindModule("Jetson Xavier NX")
	if err := u.Insert(0, nx1); err != nil {
		t.Fatal(err)
	}
	if err := u.Insert(1, nx2); err == nil {
		t.Error("uRECS power budget not enforced")
	}
	// A SMARC module still fits.
	smarc, _ := FindModule("SMARC ARM")
	if err := u.Insert(1, smarc); err != nil {
		t.Errorf("SMARC rejected: %v", err)
	}
	if u.MaxPowerW() > 15 {
		t.Errorf("uRECS max power %.1f W exceeds envelope", u.MaxPowerW())
	}
}

func TestRECSBoxAndTRECS(t *testing.T) {
	box := NewRECSBox(4)
	xeon, _ := FindModule("COM Express Xeon-D")
	if err := box.Insert(0, xeon); err != nil {
		t.Fatal(err)
	}
	hpc, _ := FindModule("COM-HPC Server x86")
	if err := box.Insert(1, hpc); err == nil {
		t.Error("RECS|Box accepted COM-HPC")
	}

	tr := NewTRECS(3)
	mods, err := tr.Mount("COM-HPC Server x86", " ", "COM-HPC Xilinx ZU+")
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 2 || tr.Slots[1].Module() != mods[1] || tr.Slots[2].Module() != nil {
		t.Errorf("t.RECS mounted %d modules, slot 1 holds %v", len(mods), tr.Slots[1].Module())
	}
	if _, err := NewRECSBox(1).Mount("COM Express Xeon-D", "COM Express Xeon-D"); err == nil {
		t.Error("mounted two modules into a one-slot RECS|Box")
	}
	if _, err := NewRECSBox(1).Mount("bogus"); err == nil {
		t.Error("mounted an unknown module")
	}
}

func TestPowerModel(t *testing.T) {
	u := NewURECS()
	nx, _ := FindModule("Jetson Xavier NX")
	if err := u.Insert(0, nx); err != nil {
		t.Fatal(err)
	}
	idle := u.PowerW(nil)
	full := u.PowerW(map[int]float64{0: 1})
	if idle != u.BaseboardW+nx.IdleW {
		t.Errorf("idle power = %v", idle)
	}
	if full != u.BaseboardW+nx.MaxW {
		t.Errorf("full power = %v", full)
	}
	// Clamping.
	over := u.PowerW(map[int]float64{0: 5})
	if over != full {
		t.Errorf("utilization not clamped: %v vs %v", over, full)
	}
}

func TestRemoveAndPowerGate(t *testing.T) {
	u := NewURECS()
	nx, _ := FindModule("Jetson Xavier NX")
	if err := u.Insert(0, nx); err != nil {
		t.Fatal(err)
	}
	m, err := u.Remove(0)
	if err != nil || m.Name != nx.Name {
		t.Fatalf("remove = %v, %v", m, err)
	}
	if u.MaxPowerW() != u.BaseboardW || u.Slots[0].Powered() {
		t.Errorf("removed module still drawing: %v", u.MaxPowerW())
	}
	if _, err := u.Remove(0); err == nil {
		t.Error("double remove succeeded")
	}
	// Run-time exchange: a different module now fits.
	smarc, _ := FindModule("SMARC FPGA-SoC")
	if err := u.Insert(0, smarc); err != nil {
		t.Errorf("exchange failed: %v", err)
	}
}

func TestSnapshot(t *testing.T) {
	u := NewURECS()
	nx, _ := FindModule("Jetson Xavier NX")
	if err := u.Insert(0, nx); err != nil {
		t.Fatal(err)
	}
	snap := u.Snapshot(map[int]float64{0: 0.5})
	if snap.Chassis != "uRECS" || len(snap.PerSlot) != len(u.Slots) {
		t.Fatalf("bad snapshot %+v", snap)
	}
	r := snap.PerSlot[0]
	if r.Module != nx.Name || !r.Powered {
		t.Errorf("slot reading %+v", r)
	}
	if r.TempC <= 25 {
		t.Errorf("loaded module at ambient temp %v", r.TempC)
	}
	if snap.PerSlot[1].TempC != 25 {
		t.Errorf("empty slot temp %v", snap.PerSlot[1].TempC)
	}
}

func TestModuleAcceleratorLinksResolve(t *testing.T) {
	// Every accelerator reference in the module catalogue must exist in
	// the accel database.
	for _, m := range StandardModules() {
		if m.Accelerator == "" {
			continue
		}
		if _, err := accel.FindDevice(m.Accelerator); err != nil {
			t.Errorf("module %s references unknown accelerator %s", m.Name, m.Accelerator)
		}
	}
}

func TestModuleValidate(t *testing.T) {
	bad := &Module{Name: "", MaxW: 5}
	if err := bad.Validate(); err == nil {
		t.Error("accepted empty name")
	}
	bad2 := &Module{Name: "x", IdleW: 10, MaxW: 5}
	if err := bad2.Validate(); err == nil {
		t.Error("accepted idle > max")
	}
}

func TestFindModule(t *testing.T) {
	if _, err := FindModule("RPi CM4"); err != nil {
		t.Error(err)
	}
	if _, err := FindModule("bogus"); err == nil {
		t.Error("found bogus module")
	}
}

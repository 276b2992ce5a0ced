// Command recs-sim assembles a RECS chassis, inserts microserver
// modules and prints the power/monitoring report — the platform-level
// view of §II-A.
//
// Usage:
//
//	recs-sim -chassis urecs -modules "Jetson Xavier NX,Xilinx Kria K26" -util 0.7
//	recs-sim -chassis trecs -modules "COM-HPC Server x86"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vedliot/internal/microserver"
)

func main() {
	chassisName := flag.String("chassis", "urecs", "chassis: urecs, trecs, recsbox")
	modules := flag.String("modules", "Jetson Xavier NX", "comma-separated module names")
	util := flag.Float64("util", 0.5, "uniform module utilization 0..1")
	flag.Parse()

	var chassis *microserver.Chassis
	switch *chassisName {
	case "urecs":
		chassis = microserver.NewURECS()
	case "trecs":
		chassis = microserver.NewTRECS(3)
	case "recsbox":
		chassis = microserver.NewRECSBox(4)
	default:
		fatal(fmt.Errorf("unknown chassis %q", *chassisName))
	}
	fmt.Printf("%s (%s tier), %d slots, baseboard %.1f W, fabric %v Gbps\n",
		chassis.Name, chassis.Tier, len(chassis.Slots), chassis.BaseboardW, chassis.FabricGbps)

	utilMap := map[int]float64{}
	mods, err := chassis.Mount(strings.Split(*modules, ",")...)
	for slot, m := range mods {
		fmt.Printf("slot %d <- %s (%v, %s, %.1f-%.1f W)\n", slot, m.Name, m.FormFactor, m.Arch, m.IdleW, m.MaxW)
		utilMap[slot] = *util
	}
	if err != nil {
		fatal(err)
	}

	snap := chassis.Snapshot(utilMap)
	fmt.Printf("\nmonitoring snapshot at %.0f%% utilization:\n", *util*100)
	fmt.Printf("%-6s %-24s %-8s %8s %8s\n", "slot", "module", "powered", "power W", "temp C")
	for _, r := range snap.PerSlot {
		name := r.Module
		if name == "" {
			name = "(empty)"
		}
		fmt.Printf("%-6d %-24s %-8v %8.1f %8.1f\n", r.Slot, name, r.Powered, r.PowerW, r.TempC)
	}
	fmt.Printf("total: %.1f W (worst case %.1f W)\n", snap.TotalW, chassis.MaxPowerW())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recs-sim:", err)
	os.Exit(1)
}

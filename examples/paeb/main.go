// Pedestrian Automatic Emergency Braking (paper §V-A): distribute the
// detector between the car and an edge station, sweeping vehicle speed
// and network quality, with remote attestation of the edge station
// before any raw sensor data leaves the car.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"vedliot/internal/accel"
	"vedliot/internal/attest"
	"vedliot/internal/core"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func main() {
	// Attest the edge station first (§V-A: "an integration of
	// VEDLIoT's remote attestation approach is of importance").
	root, err := attest.NewRootOfTrust()
	if err != nil {
		log.Fatal(err)
	}
	boot := []attest.BootStage{
		{Name: "bootloader", Image: []byte("edge-bl-1.0")},
		{Name: "os", Image: []byte("edge-os-5.15")},
		{Name: "paeb-service", Image: []byte("paeb-detector-3.1")},
	}
	station, err := attest.NewDevice("edge-station-7", root, boot)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		defer l.Close()
		go attest.Serve(l, station)
		verifier := attest.NewVerifier(root.Public(), station.Measurement())
		ev, rtt, err := verifier.Attest(context.Background(), l.Addr().String(), 5*time.Second)
		if err != nil {
			log.Fatalf("edge station failed attestation: %v", err)
		}
		fmt.Printf("edge station %q attested in %v — raw sensor data may leave the car\n\n", ev.Device, rtt)
	} else {
		fmt.Println("(no loopback networking; skipping live attestation)")
	}

	// Offload decision sweep.
	g := nn.YoloV4(416, 80, nn.BuildOptions{})
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		log.Fatal(err)
	}
	onCar, _ := accel.FindDevice("Xavier NX")
	edge, _ := accel.FindDevice("GTX1660")

	fmt.Printf("%-10s %-12s %9s %9s %9s %9s %9s\n",
		"km/h", "network", "deadline", "local ms", "edge ms", "offload", "car mJ")
	for _, speed := range []float64{30, 50, 80, 120} {
		v := speed / 3.6
		deadlineMS := 0.10 * (25 / v) * 1000 // 10% of time-to-cover 25 m
		for _, link := range core.MobileProfiles() {
			plan, err := core.PlanOffload(w, onCar, edge, tensor.INT8, link,
				500_000, 2_000, deadlineMS, 2.5)
			if err != nil {
				log.Fatal(err)
			}
			carMJ := plan.CarEnergyLocalMJ
			if plan.Offload {
				carMJ = plan.CarEnergyOffloadMJ
			}
			fmt.Printf("%-10.0f %-12s %9.0f %9.1f %9.1f %9v %9.0f\n",
				speed, link.Name, deadlineMS, plan.LocalMS, plan.EdgeMS, plan.Offload, carMJ)
		}
	}
	fmt.Println("\noffloading wins where the network is fast enough to beat the deadline")
	fmt.Println("and the radio energy undercuts on-car inference energy.")
}

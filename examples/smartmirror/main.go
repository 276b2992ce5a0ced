// Smart-mirror demonstrator (paper §V-C, Fig. 5): four neural networks
// (face detection, face embedding, object/gesture detection, speech)
// feed Kalman-filter person tracking and a fusion/decision stage, all
// running on a uRECS within its power envelope.
package main

import (
	"fmt"
	"log"
	"math"

	"vedliot/internal/accel"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	"vedliot/internal/track"
)

func main() {
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		log.Fatal(err)
	}

	// Stage models and their invocation rates (Fig. 5 pipeline).
	stages := []struct {
		name string
		g    *nn.Graph
		rate float64
	}{
		{"WiderFace detection", nn.FaceDetectNet(96, nn.BuildOptions{}), 30},
		{"FaceNet embedding", nn.FaceEmbedNet(64, 128, nn.BuildOptions{}), 10},
		{"YOLO objects+gestures", nn.YoloV4Tiny(416, 80, nn.BuildOptions{}), 15},
		{"gesture classifier", nn.GestureNet(64, 8, nn.BuildOptions{}), 15},
		{"DeepSpeech transcript", nn.SpeechNet(100, 26, 29, nn.BuildOptions{}), 2},
	}
	fmt.Println("per-stage budget on", dev.Name)
	var load float64
	for _, st := range stages {
		if err := st.g.InferShapes(1); err != nil {
			log.Fatal(err)
		}
		w, err := accel.WorkloadFromGraph(st.g, tensor.INT8)
		if err != nil {
			log.Fatal(err)
		}
		m, err := dev.Evaluate(w, tensor.INT8, 1)
		if err != nil {
			log.Fatal(err)
		}
		l := m.LatencyMS * st.rate / 10 // percent of one second
		load += l
		fmt.Printf("  %-24s %6.2f ms @ %4.0f Hz -> %5.1f%% load\n", st.name, m.LatencyMS, st.rate, l)
	}
	fmt.Printf("aggregate accelerator load: %.0f%%\n\n", load)

	// Person tracking: two residents walk past the mirror; the tracker
	// keeps their identities while the face stage relabels them.
	tracker := track.NewTracker(track.DefaultKalmanConfig(), 60, 3)
	for frame := 0; frame < 60; frame++ {
		var dets []track.Detection
		// Alice crosses left to right; Bob enters at frame 20.
		dets = append(dets, track.Detection{
			P:     track.Point{X: 50 + float64(frame)*7, Y: 200 + 10*math.Sin(float64(frame)/5)},
			Label: "alice",
		})
		if frame >= 20 {
			dets = append(dets, track.Detection{
				P:     track.Point{X: 600 - float64(frame-20)*6, Y: 260},
				Label: "bob",
			})
		}
		tracker.Step(dets)
	}
	fmt.Println("tracked identities after 60 frames:")
	for _, tr := range tracker.Tracks() {
		s := tr.Filter.State()
		v := tr.Filter.Velocity()
		fmt.Printf("  track %d (%s): pos (%.0f, %.0f), velocity (%.1f, %.1f)\n",
			tr.ID, tr.Label, s.X, s.Y, v.X, v.Y)
	}

	// Decision fusion: greet whoever approaches the mirror.
	fmt.Println("\nfusion decisions:")
	for _, tr := range tracker.Tracks() {
		if math.Abs(tr.Filter.Velocity().X) < 8 {
			fmt.Printf("  %s is lingering -> show personal dashboard\n", tr.Label)
		} else {
			fmt.Printf("  %s is passing by -> idle display\n", tr.Label)
		}
	}

	// Platform check: everything on a Jetson NX inside the uRECS.
	chassis := microserver.NewURECS()
	if _, err := chassis.Mount("Jetson Xavier NX"); err != nil {
		log.Fatal(err)
	}
	power := chassis.PowerW(map[int]float64{0: load / 100})
	fmt.Printf("\nuRECS power at this load: %.1f W (module budget 15 W)\n", power)
}

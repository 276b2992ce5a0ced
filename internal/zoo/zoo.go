// Package zoo is the shared servable model zoo of the toolchain CLIs:
// named, deterministic (seeded) model constructors with a 1-input/
// 1-output serving shape, usable by vedliot-serve (fleet deployment),
// vedliot-pack (artifact packaging) and tests. Entries mirror the
// paper's use-case networks; every build is reproducible, so a packed
// .vedz artifact of a zoo entry has a stable content digest.
package zoo

import (
	"fmt"
	"sort"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Entry is one zoo model: a named deterministic constructor.
type Entry struct {
	// Name is the CLI identifier (e.g. "mirror-face").
	Name string
	// About is the one-line description shown by -list-models.
	About string
	// Build constructs the weighted graph; repeated calls are
	// identical (fixed seed).
	Build func() *nn.Graph
}

// entries is the registry, keyed by Entry.Name.
var entries = map[string]Entry{}

func register(e Entry) {
	entries[e.Name] = e
}

func init() {
	register(Entry{"mirror-face", "smart-mirror face detector (Fig. 5 stage 1)",
		func() *nn.Graph { return nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 91}) }})
	register(Entry{"mirror-face-fp16", "face detector, FP16 storage of its conv weights",
		func() *nn.Graph {
			return WeightsToFP16(nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 91}))
		}})
	register(Entry{"mirror-gesture", "smart-mirror gesture classifier",
		func() *nn.Graph { return nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77}) }})
	register(Entry{"mirror-embed", "smart-mirror face embedding (FaceNet stand-in)",
		func() *nn.Graph { return nn.FaceEmbedNet(32, 64, nn.BuildOptions{Weights: true, Seed: 23}) }})
	register(Entry{"motor", "motor-condition classifier (§V-B)",
		func() *nn.Graph { return nn.MotorNet(256, 3, nn.BuildOptions{Weights: true, Seed: 31}) }})
	register(Entry{"arc", "DC-arc detector (§V-B)",
		func() *nn.Graph { return nn.ArcNet(256, nn.BuildOptions{Weights: true, Seed: 37}) }})
	register(Entry{"lenet", "LeNet-class CNN (compression study)",
		func() *nn.Graph { return nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 1}) }})
	register(Entry{"mlp", "LeNet-300-100 MLP (Deep Compression reproduction)",
		func() *nn.Graph {
			return nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1})
		}})
	register(Entry{"mobilenetedge", "MobileNet-style edge CNN (INT8 runtime study)",
		func() *nn.Graph { return nn.MobileNetEdge(64, 10, nn.BuildOptions{Weights: true, Seed: 3}) }})
	register(Entry{"tiny", "tiny smoke-test MLP (golden artifact, CI)",
		func() *nn.Graph { return nn.MLP("tiny", []int{16, 8, 4}, nn.BuildOptions{Weights: true, Seed: 7}) }})
}

// Entries returns every zoo entry sorted by name.
func Entries() []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the named entry.
func Find(name string) (Entry, error) {
	e, ok := entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("zoo: unknown model %q (known: %v)", name, names())
	}
	return e, nil
}

func names() []string {
	out := make([]string, 0, len(entries))
	for n := range entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WeightsToFP16 converts every node's main weight tensor (conv filters,
// dense matrices — nn.WeightKey) to FP16 storage in place and returns
// the graph. Biases and batch-norm statistics stay FP32, the standard
// mixed-precision split. The artifact keeps them half-width; the FP32
// engine dequantizes them once at compile time.
func WeightsToFP16(g *nn.Graph) *nn.Graph {
	for _, n := range g.Nodes {
		if w, ok := n.Weights[nn.WeightKey]; ok && w != nil && w.DType == tensor.FP32 {
			n.Weights[nn.WeightKey] = w.Convert(tensor.FP16)
		}
	}
	return g
}

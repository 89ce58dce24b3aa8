package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// PaperTopo is the -topo spec naming the paper's two-node XE8545 testbed —
// the default everywhere, selecting the original Cluster rather than a
// generated datacenter fabric.
const PaperTopo = "paper"

// ParseTopoSpec parses a -topo specification shared by bwchar, sweep and
// topoview:
//
//	fat-tree:nodes=64,pod=4,rails=4,oversub=2
//	rail-only:nodes=64
//	dragonfly:nodes=64,pod=8
//
// The form is kind:key=value,... with keys nodes (required), pod, rails,
// oversub and radix; omitted keys take the DC defaults. The testbed spec
// "paper" is not a datacenter fabric and must be special-cased by the caller
// before parsing. The returned config is validated with defaults applied, so
// cfg.Spec() round-trips.
func ParseTopoSpec(spec string) (DCConfig, error) {
	kindStr, rest, _ := strings.Cut(spec, ":")
	var cfg DCConfig
	switch kindStr {
	case "fat-tree", "fattree", "ft":
		cfg.Kind = FatTree
	case "rail-only", "railonly", "rail":
		cfg.Kind = RailOnly
	case "dragonfly", "dfly":
		cfg.Kind = Dragonfly
	case PaperTopo:
		return DCConfig{}, fmt.Errorf("topology: spec %q is the testbed, not a generated fabric", spec)
	default:
		return DCConfig{}, fmt.Errorf("topology: unknown fabric kind %q (want fat-tree, rail-only or dragonfly)", kindStr)
	}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return DCConfig{}, fmt.Errorf("topology: malformed spec field %q (want key=value)", kv)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return DCConfig{}, fmt.Errorf("topology: spec field %q needs a positive integer", kv)
			}
			switch key {
			case "nodes":
				cfg.Nodes = n
			case "pod":
				cfg.PodSize = n
			case "rails":
				cfg.Rails = n
			case "oversub":
				if n > 1<<53 {
					// Past 2^53 float64 rounds, and Spec could not render
					// the value back as an integer this parser accepts.
					return DCConfig{}, fmt.Errorf("topology: spec field %q above 2^53", kv)
				}
				cfg.Oversub = float64(n)
			case "radix":
				cfg.Radix = n
			default:
				return DCConfig{}, fmt.Errorf("topology: unknown spec key %q", key)
			}
		}
	}
	if cfg.Nodes == 0 {
		return DCConfig{}, fmt.Errorf("topology: spec %q needs nodes=N", spec)
	}
	if err := cfg.Validate(); err != nil {
		return DCConfig{}, err
	}
	return cfg.WithDefaults(), nil
}

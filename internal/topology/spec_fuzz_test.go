package topology

import "testing"

// FuzzParseTopoSpec: any -topo string either fails to parse, or yields a
// config that validates, renders back to itself through Spec, has a finite
// positive switch-port count and pod seams that cover every node exactly.
func FuzzParseTopoSpec(f *testing.F) {
	for _, seed := range []string{
		"fat-tree:nodes=8,radix=2",
		"rail-only:nodes=8,radix=1",
		"fat-tree:nodes=8,pod=9223372036854775807",
		"fat-tree:nodes=64,pod=4,rails=4,oversub=2,radix=32",
		"dragonfly:nodes=32,pod=8,rails=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseTopoSpec(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%q parsed to a config that does not validate: %v", spec, err)
		}
		again, err := ParseTopoSpec(cfg.Spec())
		if err != nil || again != cfg {
			t.Fatalf("%q -> %q does not round-trip: %+v vs %+v (%v)", spec, cfg.Spec(), again, cfg, err)
		}
		if ports := cfg.SwitchPorts(); ports <= 0 {
			t.Fatalf("%q: %d switch ports", spec, ports)
		}
		sum := 0
		for _, s := range cfg.Seams() {
			sum += s
		}
		if sum != cfg.Nodes {
			t.Fatalf("%q: seams cover %d of %d nodes", spec, sum, cfg.Nodes)
		}
	})
}

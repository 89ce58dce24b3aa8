package model

import (
	"strings"
	"testing"
)

// FuzzParseSizes: any size list either fails to parse, or yields one layer
// count of at least 1 per non-empty token, with "max" mapping to maxLayers.
// The seeds are the inputs that once parsed to absurd models: NaN, Inf and
// 1e30 to 183,155,054,184 layers, and 0 and -3 to a 1-layer model.
func FuzzParseSizes(f *testing.F) {
	for _, seed := range []string{
		"NaN", "Inf", "-Inf", "1e30", "0", "-3", "-0",
		"1.4, 0.7,max,,2.9", "9223372036.8", "9223372037", "1e-12",
	} {
		f.Add(seed)
	}
	const maxLayers = 57
	f.Fuzz(func(t *testing.T, arg string) {
		counts, err := ParseSizes(arg, maxLayers)
		if err != nil {
			return
		}
		var toks []string
		for _, tok := range strings.Split(arg, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				toks = append(toks, tok)
			}
		}
		if len(counts) != len(toks) {
			t.Fatalf("%q: %d counts for %d tokens", arg, len(counts), len(toks))
		}
		for i, n := range counts {
			if toks[i] == "max" && n != maxLayers {
				t.Fatalf("%q: max mapped to %d layers, want %d", arg, n, maxLayers)
			}
			if n < 1 {
				t.Fatalf("%q: token %q mapped to %d layers", arg, toks[i], n)
			}
		}
	})
}

func TestParseSizesRejectsDegenerate(t *testing.T) {
	for _, arg := range []string{"NaN", "Inf", "+Inf", "-Inf", "1e30", "0", "-3", "-0", "1.4,nan", "9223372037"} {
		if got, err := ParseSizes(arg, 10); err == nil {
			t.Errorf("ParseSizes(%q) = %v, want an error", arg, got)
		}
	}
	got, err := ParseSizes("9223372036.8,1e-12", 10)
	if err != nil || len(got) != 2 || got[0] < 1 || got[1] != 1 {
		t.Errorf("ParseSizes near the limits = %v, %v; want two counts, the second 1", got, err)
	}
}

package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSizes converts a comma-separated model-size list (billions of
// parameters, or "max" for the largest fit, empty tokens skipped) into layer
// counts, preserving argument order — sweep tables and streamed sweep
// responses render rows in exactly this order, so the output for a given
// size list is reproducible. A size must be positive and finite, and its
// parameter count must fit an int64. Shared by cmd/sweep and cmd/servesim.
func ParseSizes(arg string, maxLayers int) ([]int, error) {
	var layerCounts []int
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "max" {
			layerCounts = append(layerCounts, maxLayers)
			continue
		}
		b, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", tok, err)
		}
		// float64(math.MaxInt64) is 2^63, the first count an int64 cannot
		// hold; !(b > 0) also rejects NaN.
		if !(b > 0) || b*1e9 >= math.MaxInt64 {
			return nil, fmt.Errorf("bad size %q: want a finite number of billions of parameters above 0 and below %.0f", tok, math.MaxInt64/1e9)
		}
		layerCounts = append(layerCounts, LayersForParams(int64(b*1e9)))
	}
	return layerCounts, nil
}

package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "config", "value")
	tb.Row("DDP", 438.0)
	tb.Row("Megatron-LM", 331.25)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "DDP") || !strings.Contains(out, "438") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
}

func TestTableHandlesShortRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Row("x")
	out := tb.String()
	if !strings.Contains(out, "x") {
		t.Error("short row dropped")
	}
}

func TestTripleAndDelta(t *testing.T) {
	if Triple(1.234, 5.6, 7.89) != "1.234/5.6/7.89" {
		t.Errorf("Triple = %q", Triple(1.234, 5.6, 7.89))
	}
}

func TestSameOrder(t *testing.T) {
	if !SameOrder([]float64{3, 2, 1}, []float64{30, 20, 10}) {
		t.Error("identical ordering rejected")
	}
	if SameOrder([]float64{1, 2}, []float64{2, 1}) {
		t.Error("inverted ordering accepted")
	}
	if SameOrder([]float64{1}, []float64{1, 2}) {
		t.Error("length mismatch accepted")
	}
	// Ties are compatible with any order.
	if !SameOrder([]float64{1, 1}, []float64{2, 1}) {
		t.Error("tie should not violate ordering")
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, cfg := range []PaperConfig{CfgDDP, CfgMegatron, CfgZeRO1, CfgZeRO2, CfgZeRO3} {
		if _, ok := Fig6ModelSizeB[cfg]; !ok {
			t.Errorf("Fig6 missing %s", cfg)
		}
		if _, ok := Fig7ThroughputTFLOPs[cfg]; !ok {
			t.Errorf("Fig7 missing %s", cfg)
		}
		if _, ok := Table4SingleNode[cfg]; !ok {
			t.Errorf("Table4 single missing %s", cfg)
		}
		if _, ok := Table4DualNode[cfg]; !ok {
			t.Errorf("Table4 dual missing %s", cfg)
		}
	}
	if len(Table6NvmePlacement) != 7 {
		t.Errorf("Table VI has %d configs, want 7", len(Table6NvmePlacement))
	}
	if len(Fig1Trend) < 10 {
		t.Error("Fig 1 trend data too sparse")
	}
}

func TestPaperDataInternalConsistency(t *testing.T) {
	// Fig 6: dual-node sizes never smaller than single-node.
	for cfg, v := range Fig6ModelSizeB {
		if v[1] < v[0] {
			t.Errorf("%s: dual-node size %v below single-node %v", cfg, v[1], v[0])
		}
	}
	// Table VI: the paper's own conclusion G >= F > E and D > C.
	tv := Table6NvmePlacement
	if !(tv["G"].TFLOPs >= tv["F"].TFLOPs && tv["F"].TFLOPs > tv["E"].TFLOPs) {
		t.Error("Table VI reference data violates G >= F > E")
	}
	if tv["D"].TFLOPs <= tv["C"].TFLOPs {
		t.Error("Table VI reference data violates D > C")
	}
}

package whatif

import (
	"bytes"
	"sort"
	"testing"

	"llmbw/internal/sim"
)

// TestXbarScenarioKeysComplete pins XbarReport's fixed display list to the
// key set XbarAblation actually produces: the report iterates xbarScenarios
// instead of the maps (map order is randomized), so a scenario added to the
// ablation but not the list would silently vanish from the table.
func TestXbarScenarioKeysComplete(t *testing.T) {
	with, without := XbarAblation(100 * sim.Millisecond)
	for _, m := range []map[string]float64{with, without} {
		if len(m) != len(xbarScenarios) {
			t.Fatalf("ablation has %d scenarios, display list has %d", len(m), len(xbarScenarios))
		}
		got := make([]string, 0, len(m))
		for k := range m {
			got = append(got, k)
		}
		sort.Strings(got)
		want := append([]string(nil), xbarScenarios...)
		sort.Strings(want)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("scenario key mismatch: map has %q, display list has %q", got[i], want[i])
			}
		}
	}
}

// TestXbarReportByteStable renders the crossbar ablation twice from scratch
// and requires identical bytes — the regression test for the
// ordered-map-emit audit of this package's map-backed report.
func TestXbarReportByteStable(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := XbarReport(&bufs[i], 100*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("XbarReport output differs across identical runs:\n%s\n----\n%s",
			bufs[0].String(), bufs[1].String())
	}
}

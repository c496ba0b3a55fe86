package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestFig8MatchOpsEqualBaseline regenerates Figure 8 with the flags of
// `make bench-smoke` and requires the match operations per insert to be
// those of the checked-in series, to the bit: the column is a count, so a
// change that only makes a match operation cheaper leaves it alone, and one
// that moves it has changed what an insert does.
func TestFig8MatchOpsEqualBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "baselines", "BENCH_fig8.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []benchPoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	fig8Points = nil
	fig8(60, 30, 25)
	if len(fig8Points) != len(want) {
		t.Fatalf("figure 8 has %d points, the baseline %d", len(fig8Points), len(want))
	}
	for i, got := range fig8Points {
		w := want[i]
		if got.Services != w.Services || got.Series != w.Series || got.MatchOpsPerOp != w.MatchOpsPerOp {
			t.Errorf("point %d: %d services, %s, %v match operations per insert; the baseline has %d, %s, %v",
				i, got.Services, got.Series, got.MatchOpsPerOp, w.Services, w.Series, w.MatchOpsPerOp)
		}
	}
}

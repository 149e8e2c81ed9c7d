package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFigureTablesGolden regenerates the routing-heavy tables — Figure 6,
// 9, 10 and the recovery ablation — at scale 0.05, seed 1, and compares
// them byte for byte with the committed CSVs. A change to the routing
// kernel, the overlay walk or the query path may make these faster; it
// must not move a digit. To regenerate after an intended change:
//
//	go run ./cmd/experiments -run all -scale 0.05 -seed 1 -o DIR
//
// and copy DIR/<name>.csv to testdata/<name>_s005_seed1.csv.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates four figure tables (seconds); run without -short")
	}
	for _, name := range []string{"fig6", "fig9", "fig10", "ablation-recovery"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+"_s005_seed1.csv"))
			if err != nil {
				t.Fatal(err)
			}
			r, ok := ByName(name)
			if !ok {
				t.Fatalf("experiment %q is not registered", name)
			}
			tab, err := r.Run(Options{Seed: 1, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.CSV(); got != string(want) {
				t.Fatalf("%s differs from the golden table:\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

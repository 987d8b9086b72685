package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"elsm/internal/costmodel"
)

// tinyCfg runs experiments at 1/1024 scale with a zero cost model: fast
// plumbing validation (shapes are exercised by the real harness).
func tinyCfg() Config {
	zero := costmodel.Zero
	return Config{Scale: 1024, Ops: 60, Cost: &zero}
}

func TestAllFiguresRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bench plumbing test")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			tbl, err := exp.Run(tinyCfg())
			if err != nil {
				t.Fatalf("%s: %v", exp.Name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", exp.Name)
			}
			for _, row := range tbl.Rows {
				if len(row.Series) == 0 {
					t.Fatalf("%s row %s has no series", exp.Name, row.X)
				}
				for name, v := range row.Series {
					if v < 0 {
						t.Fatalf("%s %s/%s negative latency", exp.Name, row.X, name)
					}
				}
			}
			out := tbl.Format()
			if !strings.Contains(out, tbl.Name) {
				t.Fatalf("format output missing name: %s", out)
			}
		})
	}
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"eLSM-P1", "eLSM-P2", "File granularity", "Record granularity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	tbl := Table{
		Name:    "Ablation: group commit",
		Caption: "c",
		XLabel:  "x",
		Series:  []string{"a"},
		Rows:    []Row{{X: "1", Series: map[string]float64{"a": 2.5}}},
	}
	if got, want := tbl.FileSlug(), "ablation-group-commit"; got != want {
		t.Fatalf("slug = %q, want %q", got, want)
	}
	dir := t.TempDir()
	path, err := tbl.WriteJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != tbl.Name || len(back.Rows) != 1 || back.Rows[0].Series["a"] != 2.5 {
		t.Fatalf("round trip = %+v", back)
	}
	if !strings.HasSuffix(path, "BENCH_ablation-group-commit.json") {
		t.Fatalf("path = %q", path)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 32 || c.Ops != 1200 || c.Cost == nil {
		t.Fatalf("defaults = %+v", c)
	}
	if c.paperMB(128) != 4<<20 {
		t.Fatalf("128MB scaled = %d", c.paperMB(128))
	}
	if c.paperMB(1) != 64<<10 {
		t.Fatalf("floor not applied: %d", c.paperMB(1))
	}
}

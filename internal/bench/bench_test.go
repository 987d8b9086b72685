package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyCfg runs experiments at 1/1024 scale: fast plumbing validation.
func tinyCfg() Config {
	return Config{Scale: 1024, Ops: 60}
}

func TestAllFiguresRunAtTinyScale(t *testing.T) {
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
	if c.Scale != 32 || c.Ops != 1200 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.paperMB(128) != 4<<20 {
		t.Fatalf("128MB scaled = %d", c.paperMB(128))
	}
	if c.paperMB(1) != 64<<10 {
		t.Fatalf("floor not applied: %d", c.paperMB(1))
	}
}

// shapeCfg is the scale the figures' shapes are asserted at: a 128 KB EPC (32
// pages) under datasets of 64 KB to 3 MB, and enough reads per point that a
// buffer beyond the EPC cannot stay resident by luck. Everything asserted
// below is a count, or priced from counts, of a seeded read-only run — exact
// on any box, so there are no tolerances.
func shapeCfg() Config {
	return Config{Scale: 1024, Ops: 400}
}

func mustRun(t *testing.T, fig func(Config) (Table, error)) Table {
	t.Helper()
	tbl, err := fig(shapeCfg())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestFig6aPagingShape is the paper's central claim (§4.2, Figures 2 and 6a)
// as counts: eLSM-P2 keeps its data outside the enclave and never faults,
// whatever the data size; eLSM-P1's in-enclave read buffer is free below the
// EPC and pages ever harder past it.
func TestFig6aPagingShape(t *testing.T) {
	epc := shapeCfg().epcBytes()
	tbl := mustRun(t, Fig6a)
	var p1Past []uint64
	for i, dataMB := range fig6aDataMB {
		row := tbl.Rows[i]
		if f := row.Points[string(P2Mmap)].PageFaults; f != 0 {
			t.Errorf("%s: eLSM-P2 took %d EPC faults; its data is outside the enclave", row.X, f)
		}
		p1 := row.Points[string(P1)].PageFaults
		switch data := shapeCfg().paperMB(dataMB); {
		case data < epc && p1 != 0:
			t.Errorf("%s: eLSM-P1 took %d EPC faults with its buffer inside the EPC", row.X, p1)
		case data > epc:
			if p1 == 0 {
				t.Errorf("%s: eLSM-P1 took no EPC faults with a buffer past the EPC", row.X)
			}
			p1Past = append(p1Past, p1)
		}
	}
	for i := 1; i < len(p1Past); i++ {
		if p1Past[i] < p1Past[i-1] {
			t.Errorf("eLSM-P1 faults past the EPC do not grow with data size: %v", p1Past)
			break
		}
	}
}

// TestFig2BlowUpAtEPC: with the data fixed, eLSM-P1's simulated cost per read
// is level while the buffer fits the EPC and jumps once it does not; the
// buffer outside the enclave costs nothing simulated at any size.
func TestFig2BlowUpAtEPC(t *testing.T) {
	epc := shapeCfg().epcBytes()
	tbl := mustRun(t, Fig2)
	var inside, past float64
	for i, bufMB := range fig2BufferMB {
		row := tbl.Rows[i]
		if out := row.Points[string(UnsecuredBuffer)]; out.SimulatedUs != 0 {
			t.Errorf("%s: the unsecured store has a simulated cost: %+v", row.X, out)
		}
		p1 := row.Points[string(P1)]
		if buf := shapeCfg().paperMB(bufMB); buf < epc {
			if p1.PageFaults != 0 {
				t.Errorf("%s: eLSM-P1 took %d EPC faults with its buffer inside the EPC", row.X, p1.PageFaults)
			}
			inside = p1.SimulatedUs
		} else if buf > epc && past == 0 {
			past = p1.SimulatedUs
		}
	}
	if past < 1.5*inside {
		t.Errorf("eLSM-P1 simulated cost per read: %.1f µs inside the EPC, %.1f µs at the first buffer past it — no blow-up", inside, past)
	}
}

// TestP2ReadCostFlatInDataSize (Figures 5b and 6a, the read side): a verified
// mmap read is one ECall and no copy, so its simulated cost is the same
// number at 8 MB and at 3 GB.
func TestP2ReadCostFlatInDataSize(t *testing.T) {
	tbl := mustRun(t, Fig6a)
	first := tbl.Rows[0].Points[string(P2Mmap)]
	if first.ECalls != uint64(shapeCfg().Ops) || first.SimulatedUs == 0 {
		t.Fatalf("%s: %d reads counted %+v", tbl.Rows[0].X, shapeCfg().Ops, first)
	}
	for _, row := range tbl.Rows[1:] {
		if got := row.Points[string(P2Mmap)]; got.Counts != first.Counts || got.SimulatedUs != first.SimulatedUs {
			t.Errorf("%s: eLSM-P2 read cost %+v differs from %s's %+v", row.X, got, tbl.Rows[0].X, first)
		}
	}
}

// TestReadOnlyFiguresRepeatExactly: two runs of a read-only figure count the
// same events at every point, hence price the same simulated component.
func TestReadOnlyFiguresRepeatExactly(t *testing.T) {
	for _, fig := range []func(Config) (Table, error){Fig2, Fig6a} {
		a, b := mustRun(t, fig), mustRun(t, fig)
		for i, row := range a.Rows {
			for series, pa := range row.Points {
				pb := b.Rows[i].Points[series]
				if pa.Counts != pb.Counts || pa.SimulatedUs != pb.SimulatedUs {
					t.Errorf("%s %s/%s: %+v then %+v", a.Name, row.X, series, pa, pb)
				}
			}
		}
	}
}

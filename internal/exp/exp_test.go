package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestMinFrames(t *testing.T) {
	cases := []struct{ n, pins, want int }{
		{257, 200, 2}, {400, 200, 2}, {401, 200, 3}, {1296, 200, 7},
		{1204, 200, 7}, {1001, 200, 6}, {100, 200, 1}, {200, 200, 1},
	}
	for _, c := range cases {
		if got := MinFrames(c.n, c.pins); got != c.want {
			t.Fatalf("MinFrames(%d,%d) = %d, want %d", c.n, c.pins, got, c.want)
		}
	}
}

func TestTable2FramesMatchPaper(t *testing.T) {
	// The paper's #frm column is fully determined by the pin counts.
	want := map[string]int{
		"128-adder": 2, "b14_C": 2, "b15_C": 3, "b20_C": 3, "b21_C": 3,
		"b22_C": 4, "C7552": 2, "des": 2, "g1296": 7, "g216": 2,
		"g625": 4, "hyp": 2, "i2": 2, "i10": 2, "max": 3,
		"memctrl": 7, "voter": 6,
	}
	pis := map[string]int{
		"128-adder": 256, "b14_C": 276, "b15_C": 484, "b20_C": 521,
		"b21_C": 521, "b22_C": 766, "C7552": 207, "des": 256,
		"g1296": 1296, "g216": 216, "g625": 625, "hyp": 256, "i2": 201,
		"i10": 257, "max": 512, "memctrl": 1204, "voter": 1001,
	}
	for _, name := range Table2Circuits {
		if got := MinFrames(pis[name], PinLimit); got != want[name] {
			t.Fatalf("%s: frames = %d, want %d", name, got, want[name])
		}
	}
}

func TestConfigStrings(t *testing.T) {
	want := []string{
		"r/nm/nat", "r/nm/1hot", "r/m/nat", "r/m/1hot",
		"nr/nm/nat", "nr/nm/1hot", "nr/m/nat", "nr/m/1hot",
	}
	specs := functionalSpecs("e64", 16)
	if len(specs) != len(want) {
		t.Fatalf("%d functional specs, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if got := (config{spec: s}).String(); got != want[i] {
			t.Fatalf("config %d = %q, want %q", i, got, want[i])
		}
		if budget := s.MaxSATConflicts; (budget != 0) != s.Minimize {
			t.Fatalf("%s: conflict budget %d; only minimize specs take one", want[i], budget)
		}
	}
}

func TestStatesString(t *testing.T) {
	if statesString(32, 2) != "32/2" || statesString(474, -1) != "474/-" {
		t.Fatal("statesString wrong")
	}
	r := Table3Row{States: 29, StatesMin: 14}
	if r.StatesString() != "29/14" {
		t.Fatal("row StatesString wrong")
	}
}

func TestPct(t *testing.T) {
	if pct(150, 100) != 50 || pct(80, 100) != -20 || pct(5, 0) != 0 {
		t.Fatal("pct wrong")
	}
	if reduction(100, 25) != 75 || reduction(0, 5) != 0 {
		t.Fatal("reduction wrong")
	}
}

func TestTable1Subset(t *testing.T) {
	rows, err := Table1([]string{"64-adder", "e64"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].PI != 128 || rows[1].PO != 65 {
		t.Fatalf("rows = %+v", rows)
	}
	var buf bytes.Buffer
	FprintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "64-adder") {
		t.Fatal("render missing circuit name")
	}
}

func TestCaseStudyValues(t *testing.T) {
	cs, err := CaseStudyI10()
	if err != nil {
		t.Fatal(err)
	}
	if cs.UnfoldedCycles != 4 || cs.FoldedCycles != 3 || cs.Reduction != 0.25 {
		t.Fatalf("case study off: %+v", cs)
	}
	if cs.OutFirstFrame != 44 || cs.OutSecondFrame != 180 {
		t.Fatalf("output split %d/%d, want 44/180", cs.OutFirstFrame, cs.OutSecondFrame)
	}
	var buf bytes.Buffer
	FprintCaseStudy(&buf, cs)
	if !strings.Contains(buf.String(), "25%") {
		t.Fatalf("render missing reduction:\n%s", buf.String())
	}
}

func TestTable3EntryFastCircuit(t *testing.T) {
	row, err := Table3Entry("e64", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !row.OK {
		t.Fatal("e64 T=16 should complete")
	}
	if row.In != 5 {
		t.Fatalf("input pins = %d, want 5 (ceil(65/16))", row.In)
	}
	if row.FLUTs >= row.SLUTs {
		t.Fatalf("functional (%d LUTs) should beat structural (%d)", row.FLUTs, row.SLUTs)
	}
	if row.States != 29 {
		t.Fatalf("states = %d, want 29 as in the paper", row.States)
	}
	var buf bytes.Buffer
	FprintTable3(&buf, []Table3Row{row})
	if !strings.Contains(buf.String(), "e64") {
		t.Fatal("render missing circuit")
	}
	pts := Figure7([]Table3Row{row})
	if len(pts) != 2 {
		t.Fatalf("figure 7 points = %d, want 2", len(pts))
	}
	var csv bytes.Buffer
	FprintFigure7(&csv, pts)
	if !strings.Contains(csv.String(), "functional,e64,16") {
		t.Fatalf("csv missing series:\n%s", csv.String())
	}
}

func TestTable3Adder64MatchesPaperStates(t *testing.T) {
	row, err := Table3Entry("64-adder", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !row.OK {
		t.Fatal("64-adder T=16 should complete")
	}
	// Paper Table III row 1: #state 32/2.
	if row.States != 32 {
		t.Fatalf("states = %d, want 32", row.States)
	}
	if row.StatesMin != 2 {
		t.Fatalf("minimized states = %d, want 2", row.StatesMin)
	}
	if row.In != 8 {
		t.Fatalf("input pins = %d, want 8", row.In)
	}
	if row.FFF >= row.SFF {
		t.Fatalf("functional FFs (%d) should beat structural (%d)", row.FFF, row.SFF)
	}
}

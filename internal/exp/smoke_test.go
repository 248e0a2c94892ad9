package exp

import (
	"os"
	"testing"
)

// TestFullTables regenerates every table; it is the driver behind the
// recorded results in EXPERIMENTS.md. Guarded by an environment variable
// because it runs for minutes.
func TestFullTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables skipped in -short mode")
	}
	if os.Getenv("CIRCUITFOLD_FULL_TABLES") == "" {
		t.Skip("set CIRCUITFOLD_FULL_TABLES=1 to run the full table sweep")
	}
	rows1, err := Table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	FprintTable1(os.Stdout, rows1)
	rows2, err := Table2(PinLimit)
	if err != nil {
		t.Fatal(err)
	}
	FprintTable2(os.Stdout, rows2)
	simple, err := SimpleBaseline(PinLimit)
	if err != nil {
		t.Fatal(err)
	}
	FprintSimple(os.Stdout, simple)
	cs, err := CaseStudyI10()
	if err != nil {
		t.Fatal(err)
	}
	FprintCaseStudy(os.Stdout, cs)
	rows3, err := Table3(nil, nil, Table3Options{Progress: os.Stdout})
	if err != nil {
		t.Fatal(err)
	}
	FprintTable3(os.Stdout, rows3)
	FprintFigure7(os.Stdout, Figure7(rows3))
}

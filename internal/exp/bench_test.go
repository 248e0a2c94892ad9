package exp

// One benchmark per paper artifact (tables and figures). The harness
// produces the actual rows; these benches time the regeneration and
// report the headline numbers as custom metrics, so
// `go test ./internal/exp -bench=. -benchmem` doubles as the
// reproduction driver. The table benches are heavy by nature; they run
// one regeneration per b.N iteration.

import (
	"io"
	"testing"

	"circuitfold/internal/core"
	"circuitfold/internal/gen"
)

// BenchmarkTable1Stats regenerates Table I (benchmark statistics) over a
// representative subset per iteration; run cmd/experiments -table 1 for
// the full 27-row table.
func BenchmarkTable1Stats(b *testing.B) {
	names := []string{"64-adder", "apex2", "e64", "i10", "C7552"}
	for i := 0; i < b.N; i++ {
		rows, err := Table1(names)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			FprintTable1(io.Discard, rows)
			b.ReportMetric(float64(rows[0].LUTs), "64-adder-LUTs")
		}
	}
}

// BenchmarkTable2Structural regenerates Table II: structural folding of
// every >200-pin benchmark except the two largest (hyp, memctrl), which
// cmd/experiments covers.
func BenchmarkTable2Structural(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := 0.0
		n := 0
		for _, name := range Table2Circuits {
			if name == "hyp" || name == "memctrl" {
				continue
			}
			g := gen.MustBuild(name)
			T := MinFrames(g.NumPIs(), PinLimit)
			r, err := core.StructuralFold(g, T, core.StructuralOptions{Counter: core.Binary})
			if err != nil {
				b.Fatal(err)
			}
			if r.InputPins() > PinLimit {
				b.Fatalf("%s: pin limit violated", name)
			}
			sum += float64(r.FlipFlops())
			n++
		}
		if i == 0 {
			b.ReportMetric(sum/float64(n), "avg-FFs")
		}
	}
}

// BenchmarkSimpleBaseline times the input-buffering baseline on the same
// circuits as BenchmarkTable2Structural (Section VI comparison).
func BenchmarkSimpleBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range Table2Circuits {
			if name == "hyp" || name == "memctrl" {
				continue
			}
			g := gen.MustBuild(name)
			T := MinFrames(g.NumPIs(), PinLimit)
			if _, err := core.SimpleFold(g, T); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCaseStudyI10 regenerates the Section VI latency case study
// and asserts the 25% I/O-cycle reduction.
func BenchmarkCaseStudyI10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := CaseStudyI10()
		if err != nil {
			b.Fatal(err)
		}
		if cs.UnfoldedCycles != 4 || cs.FoldedCycles != 3 {
			b.Fatalf("cycles %d -> %d, want 4 -> 3", cs.UnfoldedCycles, cs.FoldedCycles)
		}
		if i == 0 {
			b.ReportMetric(cs.Reduction*100, "reduction-%")
		}
	}
}

// BenchmarkTable3Functional regenerates Table III rows (structural vs
// functional) for the fast half of the suite; cmd/experiments -table 3
// runs all 33 entries.
func BenchmarkTable3Functional(b *testing.B) {
	for _, name := range []string{"64-adder", "e64", "i2", "i3", "arbiter"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := Table3Entry(name, 16)
				if err != nil {
					b.Fatal(err)
				}
				if !row.OK {
					b.Fatalf("%s T=16 functional fold did not complete", name)
				}
				if i == 0 {
					b.ReportMetric(row.LUTRed, "LUT-red-%")
					b.ReportMetric(row.FFRed, "FF-red-%")
				}
			}
		})
	}
}

// BenchmarkFigure7Scatter regenerates the Figure 7 size-scatter series
// for the fast circuits.
func BenchmarkFigure7Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([]Table3Row, 0, 2)
		for _, name := range []string{"e64", "i3"} {
			row, err := Table3Entry(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
		pts := Figure7(rows)
		if i == 0 {
			FprintFigure7(io.Discard, pts)
			b.ReportMetric(float64(len(pts)), "points")
		}
	}
}

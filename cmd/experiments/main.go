// Command experiments regenerates the paper's evaluation: Table I
// (benchmark statistics), Table II (structural folding under the 200-pin
// cap), the simple-baseline comparison, the i10 latency case study,
// Table III (structural vs functional) and Figure 7 (size scatter).
//
// Usage:
//
//	experiments -table 1
//	experiments -table 2
//	experiments -table simple
//	experiments -case i10
//	experiments -table 3 [-circuits e64,i2] [-frames 16,8]
//	experiments -fig 7
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"circuitfold/internal/exp"
)

func main() {
	var (
		table    = flag.String("table", "", "table to regenerate: 1, 2, 3 or simple")
		fig      = flag.String("fig", "", "figure to regenerate: 7")
		caseName = flag.String("case", "", "case study to run: i10")
		all      = flag.Bool("all", false, "run every experiment")
		circuits = flag.String("circuits", "", "comma-separated circuit subset for table 3 / fig 7")
		frames   = flag.String("frames", "", "comma-separated folding numbers for table 3 / fig 7")
		pins     = flag.Int("pins", exp.PinLimit, "I/O pin limit for tables 2 and simple")
	)
	flag.Parse()

	names := splitList(*circuits)
	var frameList []int
	for _, f := range splitList(*frames) {
		v, err := strconv.Atoi(f)
		if err != nil {
			fail(fmt.Errorf("bad -frames entry %q", f))
		}
		frameList = append(frameList, v)
	}

	ran := false
	if *all || *table == "1" {
		ran = true
		fmt.Println("== Table I: benchmark statistics ==")
		rows, err := exp.Table1(nil)
		if err != nil {
			fail(err)
		}
		exp.FprintTable1(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *table == "2" {
		ran = true
		fmt.Printf("== Table II: structural circuit folding (pin limit %d) ==\n", *pins)
		rows, err := exp.Table2(*pins)
		if err != nil {
			fail(err)
		}
		exp.FprintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *table == "simple" {
		ran = true
		fmt.Printf("== Simple input-buffering baseline vs structural (pin limit %d) ==\n", *pins)
		rows, err := exp.SimpleBaseline(*pins)
		if err != nil {
			fail(err)
		}
		exp.FprintSimple(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *caseName == "i10" {
		ran = true
		fmt.Println("== Latency case study (Section VI) ==")
		cs, err := exp.CaseStudyI10()
		if err != nil {
			fail(err)
		}
		exp.FprintCaseStudy(os.Stdout, cs)
		fmt.Println()
	}
	if *all || *table == "3" || *fig == "7" {
		ran = true
		fmt.Println("== Table III: structural vs functional circuit folding ==")
		rows, err := exp.Table3(names, frameList, exp.Table3Options{Progress: os.Stderr})
		if err != nil {
			fail(err)
		}
		exp.FprintTable3(os.Stdout, rows)
		fmt.Println()
		if *all || *fig == "7" {
			fmt.Println("== Figure 7: circuit size comparison (CSV) ==")
			exp.FprintFigure7(os.Stdout, exp.Figure7(rows))
			fmt.Println()
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// Fsmflow: the paper's Section V toolchain, step by step. A circuit is
// folded into an FSM by time-frame folding, exported in KISS2 (the
// format MeMin consumes), minimized exactly, rendered as a Figure-6
// style state diagram, and finally encoded back into logic — the full
// functional-folding pipeline with every intermediate visible.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"circuitfold"
	"circuitfold/internal/core"
	"circuitfold/internal/fsm"
)

func lut6(g *circuitfold.Circuit) int {
	n, err := circuitfold.LUTCount(g, 6)
	if err != nil {
		log.Fatal(err)
	}
	return n
}

func main() {
	// The paper's running example: the 3-bit adder of Fig. 4.
	g, err := circuitfold.Benchmark("adder3")
	if err != nil {
		log.Fatal(err)
	}

	// Pin scheduling (Algorithms 1 and 2) + time-frame folding.
	sched, err := core.PinSchedule(g, 3, core.ScheduleOptions{Reorder: true})
	if err != nil {
		log.Fatal(err)
	}
	machine, states, err := core.TimeFrameFold(g, sched, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time-frame folding: %d states (paper Fig. 6a: 6, incl. the don't-care state)\n\n", states)

	// Export the incompletely specified machine in KISS2.
	var kiss strings.Builder
	if err := fsm.WriteKISS(&kiss, machine); err != nil {
		log.Fatal(err)
	}
	fmt.Println("KISS2 export (MeMin's input format):")
	fmt.Println(kiss.String())

	// Exact state minimization (MeMin).
	minimized, _, err := fsm.Minimize(machine, fsm.DefaultMinimizeOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MeMin: %d -> %d states (paper Fig. 6b: 2, a carry-save adder)\n\n",
		machine.NumStates(), minimized.NumStates())

	// Figure-6 style state diagram.
	fmt.Println("state diagram (Graphviz DOT):")
	if err := fsm.WriteDOT(os.Stdout, minimized, "csa"); err != nil {
		log.Fatal(err)
	}

	// Encode with both state assignments and compare the logic.
	for _, enc := range []fsm.StateEncoding{fsm.NaturalBinary, fsm.OneHotState} {
		c, err := fsm.Encode(minimized, enc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s encoding: %d flip-flops, %d AIG nodes, %d 6-LUTs\n",
			enc, c.NumLatches(), c.G.NumAnds(), lut6(c.G))
	}
}

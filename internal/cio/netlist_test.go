package cio

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestReadNetlistDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomSeq(rng, 4, 3, 0, 12)

	var aag, blif bytes.Buffer
	if err := WriteAAG(&aag, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteBLIF(&blif, c, "m"); err != nil {
		t.Fatal(err)
	}
	for format, text := range map[string]string{
		FormatAAG:   aag.String(),
		FormatBLIF:  blif.String(),
		FormatBench: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
	} {
		got, err := ReadNetlist(format, strings.NewReader(text))
		if err != nil {
			t.Errorf("ReadNetlist(%q): %v", format, err)
			continue
		}
		if got.NumInputs == 0 || got.NumOutputs() == 0 {
			t.Errorf("ReadNetlist(%q): degenerate circuit %d in %d out", format, got.NumInputs, got.NumOutputs())
		}
	}
	// The aag path round-trips behavior, not just shape.
	got, err := ReadNetlist(FormatAAG, bytes.NewReader(aag.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameBehavior(t, c, got, 20, 4, 7)
}

func TestReadNetlistRejectsUnknownFormat(t *testing.T) {
	for _, format := range []string{"", "verilog", "AAG", "aig"} {
		if _, err := ReadNetlist(format, strings.NewReader("")); err == nil {
			t.Errorf("format %q accepted", format)
		}
	}
}

// TestReadNetlistSmallAllocs pins the readers' buffer: the line scanner
// grows on demand, so a 4-line netlist — a typical small upload, parsed
// on every submit — allocates a few KB, not a preallocated 1 MiB.
func TestReadNetlistSmallAllocs(t *testing.T) {
	const text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadNetlist(FormatBench, strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / runs; perParse >= 16<<10 {
		t.Errorf("a 4-line bench parse allocates %d B, want well under 64 KB", perParse)
	}
}

// TestReadNetlistLongLine reads a line longer than 1 MiB: the scanner
// buffer grows past it, up to the 64 MiB line cap.
func TestReadNetlistLongLine(t *testing.T) {
	name := strings.Repeat("n", 3<<20)
	text := "INPUT(" + name + ")\nOUTPUT(y)\ny = NOT(" + name + ")\n"
	c, err := ReadNetlist(FormatBench, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs != 1 || c.NumOutputs() != 1 {
		t.Fatalf("long-line netlist: %d in %d out, want 1 and 1", c.NumInputs, c.NumOutputs())
	}
}

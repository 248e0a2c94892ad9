package cio

import (
	"bufio"
	"fmt"
	"io"

	"circuitfold/internal/seq"
)

// Netlist formats ReadNetlist accepts.
const (
	FormatAAG   = "aag"
	FormatBLIF  = "blif"
	FormatBench = "bench"
)

// Formats lists the accepted netlist format names.
func Formats() []string { return []string{FormatAAG, FormatBLIF, FormatBench} }

// ReadNetlist parses a sequential circuit from r in the named format:
// "aag" (ASCII AIGER), "blif", or "bench" (ISCAS). It is the single
// entry point for callers that take the format as data — the fold
// daemon's upload path — so format validation produces an error, not a
// missing-symbol bug.
func ReadNetlist(format string, r io.Reader) (*seq.Circuit, error) {
	switch format {
	case FormatAAG:
		return ReadAAG(r)
	case FormatBLIF:
		return ReadBLIF(r)
	case FormatBench:
		return ReadBench(r)
	}
	return nil, fmt.Errorf("cio: unknown netlist format %q (want one of %v)", format, Formats())
}

// maxLine bounds one netlist line: a longer line is an error, not an
// unbounded buffer.
const maxLine = 64 << 20

// lineScanner returns the line scanner the netlist readers share. Its
// buffer starts at bufio's default size and grows on demand up to
// maxLine, so a small netlist costs a small buffer.
func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

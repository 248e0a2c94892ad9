package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"circuitfold"
	"circuitfold/internal/core"
	"circuitfold/internal/eqcheck"
	"circuitfold/internal/sat"
)

const (
	// verifyTrials random vectors per result (exhaustive below 13 PIs).
	verifyTrials = 64
	// satBudget and satTime bound each result's SAT proof. A proof that
	// runs out is inconclusive (counted, not failed): random simulation
	// has checked that result too. The bound keeps a run's check time
	// small next to its timed window.
	satBudget = 5000
	satTime   = 250 * time.Millisecond
)

// keyResult is the first result served for one fold key.
type keyResult struct {
	in   *input
	data []byte
	core [32]byte // digest of the result without its timing report
	err  error    // the output check's verdict
	res  *circuitfold.Result
}

// checker is the output check. Every result is compared with the first
// result served for its fold key: the same fold must give the same
// circuit in every round, and a cache hit must serve the cold fold's
// exact bytes. Each distinct result is then checked against its source
// circuit by random simulation and a SAT proof, never against another
// fold.
type checker struct {
	keys       map[string]*keyResult
	problems   []string
	satProved  int
	satUnknown int
}

func newChecker() *checker { return &checker{keys: make(map[string]*keyResult)} }

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// observe checks one round's samples and drops their result bytes,
// keeping only the first result per key. cold maps each hot key to the
// bytes its priming fold served in the same service; a nil cold means
// the workload is cold and every timed job must fold.
func (c *checker) observe(samples []sample, cold map[string][]byte) {
	for i := range samples {
		s := &samples[i]
		key := s.in.FoldKey
		switch {
		case s.err != nil:
			s.bad = true
			c.problem("job %d (%s): %v", i, s.id, s.err)
		case cold != nil && s.cache != "hit":
			s.bad = true
			c.problem("job %s: cache %q on a primed key", s.id, s.cache)
		case cold != nil && !bytes.Equal(s.result, cold[key]):
			s.bad = true
			c.problem("job %s: cache hit bytes differ from the cold fold's", s.id)
		default:
			if err := c.add(s.in, s.result); err != nil {
				s.bad = true
				c.problem("job %s: %v", s.id, err)
			}
		}
		s.result = nil
	}
}

// add records a served result, or compares it with the first one
// served for the same key.
func (c *checker) add(in *input, data []byte) error {
	d, err := coreDigest(data)
	if err != nil {
		return err
	}
	if kr, ok := c.keys[in.FoldKey]; ok {
		if kr.core != d {
			return fmt.Errorf("result differs from an earlier fold of the same key")
		}
		return nil
	}
	c.keys[in.FoldKey] = &keyResult{in: in, data: data, core: d}
	return nil
}

// coreDigest hashes a served result without its report, whose stage
// timings differ between two folds of the same key.
func coreDigest(data []byte) ([32]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return [32]byte{}, fmt.Errorf("result is not JSON: %w", err)
	}
	delete(m, "report")
	b, err := json.Marshal(m)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// verify checks each distinct result against its source circuit, on
// as many goroutines as there are CPUs; the verdicts are tallied in key
// order.
func (c *checker) verify() {
	keys := c.sortedKeys()
	proved := make([]bool, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				proved[i] = c.keys[keys[i]].check()
			}
		}()
	}
	wg.Wait()
	for i, key := range keys {
		kr := c.keys[key]
		switch {
		case kr.err != nil:
			c.problem("result for %s T=%d: %v", kr.in.source(), kr.in.Spec.T, kr.err)
		case proved[i]:
			c.satProved++
		default:
			c.satUnknown++
		}
	}
}

// check decodes the result and checks it against its source circuit,
// setting kr.err. It reports whether the SAT proof finished.
func (kr *keyResult) check() bool {
	kr.res, kr.err = core.DecodeResult(kr.data)
	if kr.err == nil {
		kr.err = circuitfold.Verify(kr.in.circuit, kr.res, verifyTrials)
	}
	if kr.err != nil {
		return false
	}
	deadline := time.Now().Add(satTime)
	stop := func() error {
		if time.Now().After(deadline) {
			return fmt.Errorf("SAT proof time is up")
		}
		return nil
	}
	switch st, err := eqcheck.SATCheckFold(kr.in.circuit, kr.res, satBudget, stop); {
	case err != nil:
		kr.err = err
	case st == sat.Sat:
		kr.err = fmt.Errorf("SAT found a counterexample")
	case st == sat.Unknown:
	default:
		return true
	}
	return false
}

func (c *checker) sortedKeys() []string {
	keys := make([]string, 0, len(c.keys))
	for k := range c.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// failed reports whether a sample misses: its own failure, or a failed
// check of its key's result.
func (c *checker) failed(s *sample) bool {
	if s.bad {
		return true
	}
	kr, ok := c.keys[s.in.FoldKey]
	return !ok || kr.err != nil
}

// quality sums the paper's Table III quality columns over the distinct
// results of the timed job list; #state is the machine's state count
// before minimization.
func (c *checker) quality(jobs []input) (gates, ffs, states int) {
	seen := make(map[string]bool)
	for _, in := range jobs {
		kr, ok := c.keys[in.FoldKey]
		if seen[in.FoldKey] || !ok || kr.res == nil {
			continue
		}
		seen[in.FoldKey] = true
		gates += kr.res.Gates()
		ffs += kr.res.FlipFlops()
		states += kr.res.States
	}
	return gates, ffs, states
}

func (in *input) source() string {
	if in.Spec.Generator != "" {
		return in.Spec.Generator
	}
	return "netlist:" + in.Spec.Netlist.Format
}

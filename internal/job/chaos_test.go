package job

import (
	"bytes"
	"context"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"circuitfold/internal/obs"
)

// chaosEnvInt reads an integer knob from the environment, for the make
// chaos / CI lane to crank rounds up without editing the test.
func chaosEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestChaosKillRestart is the chaos acceptance test: for N rounds a
// runner over one persistent directory is recovered from its journal,
// fed a random batch of jobs, and killed at a random moment — mid-fold,
// mid-queue, or idle. Every third round a random checkpoint blob is
// bit-flipped on disk between crashes. After the last crash a final
// recovery must drain the whole backlog, and every job acknowledged in
// any round must produce a result bit-identical to an uninterrupted
// fold of the same spec. Run it with CHAOS_ROUNDS=20 (the make chaos
// target) and -race for the full gate; CHAOS_SEED reproduces a failing
// schedule, CHAOS_DIR keeps the journal and store for CI artifacts.
func TestChaosKillRestart(t *testing.T) {
	rounds := chaosEnvInt("CHAOS_ROUNDS", 6)
	seed := int64(chaosEnvInt("CHAOS_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos: %d rounds, seed %d (rerun with CHAOS_SEED=%d)", rounds, seed, seed)

	dir := os.Getenv("CHAOS_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "journal.wal")
	ckDir := filepath.Join(dir, "ck")

	// The job mix: cheap enough that a round's backlog drains in
	// milliseconds, varied enough that kills land mid-fold, mid-queue
	// and post-completion across rounds.
	pool := []Spec{
		{Generator: "64-adder", T: 8, Method: MethodFunctional},
		{Generator: "64-adder", T: 16, Method: MethodFunctional},
		{Generator: "64-adder", T: 32, Method: MethodFunctional},
		{Generator: "64-adder", T: 16, Method: MethodFunctional, Reorder: true},
		{Generator: "64-adder", T: 8, Method: MethodFunctional, Minimize: true},
		{Generator: "64-adder", T: 16, Method: MethodFunctional, Reorder: true, Minimize: true},
	}

	acknowledged := map[string]Spec{} // fold key -> spec, across all rounds
	corruptions := 0

	for round := 0; round < rounds; round++ {
		jr, recs, err := OpenJournal(jpath)
		if err != nil {
			t.Fatalf("round %d: open journal: %v", round, err)
		}
		fstore, err := NewFileStore(ckDir)
		if err != nil {
			t.Fatalf("round %d: open store: %v", round, err)
		}
		r := NewRunnerWith(RunnerOptions{
			Workers: 2, QueueDepth: 64, Store: fstore, Journal: jr,
		})
		if _, err := r.Recover(recs); err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		for i, n := 0, 2+rng.Intn(3); i < n; i++ {
			spec := pool[rng.Intn(len(pool))]
			j, err := r.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Fatalf("round %d: submit: %v", round, err)
			}
			// The journal fsynced before Submit returned: from here the
			// job must survive any crash.
			acknowledged[j.FoldKey()] = spec
		}
		time.Sleep(time.Duration(rng.Intn(25)) * time.Millisecond)
		r.Kill()

		// Disk rot between crashes: flip one byte in a random live
		// checkpoint blob (never the journal; the torn-tail and CRC
		// paths have their own tests).
		if round%3 == 2 {
			if path := randomBlob(t, ckDir, rng); path != "" {
				flipByte(t, path, 0x10)
				corruptions++
			}
		}
	}

	// Final recovery: the surviving backlog must drain completely.
	jr, recs, err := OpenJournal(jpath)
	if err != nil {
		t.Fatalf("final open journal: %v", err)
	}
	fstore, err := NewFileStore(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(RunnerOptions{
		Workers: 2, QueueDepth: 64, Store: fstore, Journal: jr,
	})
	dumpFlightRecords(t, dir, r)
	n, err := r.Recover(recs)
	if err != nil {
		t.Fatalf("final recover: %v", err)
	}
	t.Logf("chaos: final recovery re-enqueued %d jobs from %d records; %d blobs corrupted",
		n, len(recs), corruptions)
	for _, j := range r.Jobs() {
		wait(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("recovered job %s (%s) = %+v", j.ID(), j.FoldKey(), st)
		}
	}
	r.Shutdown(context.Background())

	// One more restart before verification, with a guaranteed-read
	// corruption: flip a byte in one acknowledged spec's final snapshot
	// so the resubmission below must detect, quarantine, and re-fold it.
	// It flips a different bit than the between-round rot: a snapshot
	// that rot hit and nothing has read since stays corrupt, instead of
	// being flipped back to valid.
	var corruptedKey string
	for _, spec := range acknowledged {
		path := filepath.Join(ckDir, spec.Hash(), finalStage)
		if _, err := os.Stat(path); err == nil {
			flipByte(t, path, 0x04)
			corruptedKey = spec.Hash()
			corruptions++
			break
		}
	}

	// Zero acknowledged jobs lost: every spec ever acknowledged — in
	// any round, regardless of where its crash landed — refolds on the
	// survivor store (through a cold cache, so snapshots really load)
	// to the bit-identical result of an uninterrupted fold on a fresh
	// runner.
	vstore, err := NewFileStore(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	v := NewRunnerWith(RunnerOptions{Workers: 2, QueueDepth: 64, Store: vstore})
	defer v.Shutdown(context.Background())
	dumpFlightRecords(t, dir, v)
	clean := NewRunnerWith(RunnerOptions{Workers: 2})
	defer clean.Shutdown(context.Background())
	for key, spec := range acknowledged {
		j, err := v.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatalf("resubmit %s: %v", key, err)
		}
		ref, err := clean.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		wait(t, ref)
		if !bytes.Equal(encodeJob(t, j), encodeJob(t, ref)) {
			t.Errorf("spec %s: recovered result differs from uninterrupted fold", key)
		}
	}
	if corruptedKey != "" {
		if got := v.Metrics().Counter(obs.MStoreCorrupt).Value(); got < 1 {
			t.Errorf("snapshot %s corrupted but %s = %d", corruptedKey, obs.MStoreCorrupt, got)
		}
		if _, err := os.Stat(filepath.Join(ckDir, corruptedKey, finalStage+corruptSuffix)); err != nil {
			t.Errorf("corrupted snapshot not quarantined: %v", err)
		}
	}
	t.Logf("chaos: %d acknowledged specs verified bit-identical, %s = %d",
		len(acknowledged), obs.MStoreCorrupt, v.Metrics().Counter(obs.MStoreCorrupt).Value())
}

// dumpFlightRecords registers a cleanup that, if the test failed,
// writes every flight-recorder artifact the runner's failed jobs
// produced into dir as flight-<jobid>.json — alongside the journal and
// store they land in the CI failure artifact, so a chaos crash is
// debuggable offline.
func dumpFlightRecords(t *testing.T, dir string, r *Runner) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, j := range r.Jobs() {
			if rec, ok := j.FlightRecord(); ok {
				path := filepath.Join(dir, "flight-"+j.ID()+".json")
				if err := os.WriteFile(path, rec, 0o644); err == nil {
					t.Logf("chaos: flight record saved to %s", path)
				}
			}
		}
	})
}

// randomBlob picks a random checkpoint blob under dir, skipping
// already-quarantined files. Returns "" when the store is empty.
func randomBlob(t *testing.T, dir string, rng *rand.Rand) string {
	t.Helper()
	var blobs []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, corruptSuffix) {
			return nil
		}
		blobs = append(blobs, path)
		return nil
	})
	if len(blobs) == 0 {
		return ""
	}
	return blobs[rng.Intn(len(blobs))]
}

// flipByte corrupts one payload byte of a framed store blob in place,
// XORing it with bit.
func flipByte(t *testing.T, path string, bit byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) <= 8 {
		return
	}
	raw[8+(len(raw)-8)/2] ^= bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
}

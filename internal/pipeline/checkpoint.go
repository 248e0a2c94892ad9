package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Checkpoint is the per-stage persistence hook a Run may carry. A stage
// that declares Snapshot/Restore functions (see Stage) has its output
// artifact saved under the stage's address after it completes, and is
// restored — skipping the stage's work entirely — when a later run
// whose stage has the same address finds the artifact. The store
// behind the interface decides durability: internal/job keeps every
// fold's stages in one store-wide namespace, so folds that agree up to
// a stage share its artifact.
//
// Both methods must be safe for concurrent use; folds checkpoint from
// worker goroutines. Save is best-effort from the pipeline's point of
// view: a failed save is recorded on the stage's span but never fails
// the stage, so checkpointing can be bolted onto a fold without
// changing its failure modes.
type Checkpoint interface {
	// Load returns the artifact saved under key, if any.
	Load(key string) ([]byte, bool)
	// Save persists the artifact under key, replacing any prior one.
	Save(key string, data []byte) error
}

// Addresses returns the checkpoint key of each stage of the pipeline
// name run over input under budget b: "<stage>/<hex digest>". The
// digests form a chain. The root is digest(name, input, b); each
// stage's digest is digest(previous digest, stage name, stage.Reads).
// A stage's key therefore changes exactly when the input, the budget,
// its own options or an earlier stage's options change, and two folds
// that differ only in what a later stage reads share every stage
// before it. Budgets are in the root because a budget can change what
// a stage produces.
func Addresses(name, input string, b Budget, stages []Stage) []string {
	prev := digest(name, input,
		strconv.FormatInt(int64(b.Wall), 10),
		strconv.Itoa(b.BDDNodes),
		strconv.FormatInt(b.SATConflicts, 10),
		strconv.Itoa(b.MaxStates))
	keys := make([]string, len(stages))
	for i, st := range stages {
		prev = digest(prev, st.Name, st.Reads)
		keys[i] = st.Name + "/" + prev
	}
	return keys
}

// digest is the hex SHA-256 of parts, each length-prefixed so no two
// part lists share an encoding.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(strconv.Itoa(len(p))))
		h.Write([]byte{':'})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

package job

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The job journal is a crash-safe append-only write-ahead log of the
// work a crash could lose, kept under the checkpoint root. Folding is
// deterministic, so the journal does not need to capture results — only
// intent: a submit record carries the full Spec, and replaying it after
// a crash re-folds (or snapshot-resumes, via the checkpoint store) to
// the bit-identical result. Duplicate replays are therefore harmless,
// which keeps the recovery protocol idempotent and simple.
//
// The runner journals what PendingJobs reads and nothing else: a queued
// job's submit record, then its terminal record. A submit-time cache
// hit finishes before Submit returns, so it leaves no pending work and
// writes no record.
//
// On-disk format: an 8-byte file magic, then a sequence of records,
// each framed as
//
//	[4B little-endian payload length][4B little-endian CRC32-IEEE of payload][payload JSON]
//
// Append writes each frame with a single Write call and fsyncs before
// returning, so an acknowledged record is on disk. OpenJournal scans
// the file and truncates a torn tail (short frame, implausible length,
// or CRC mismatch) at the last good record boundary — the write that
// was in flight when the process died is discarded, which is correct
// because it was never acknowledged.

// journalMagic identifies a circuitfold job journal, version 1.
const journalMagic = "CFJRNL01"

// maxJournalPayload bounds a single record. A Spec is a few hundred
// bytes plus an optional inline netlist; anything past this is a
// corrupt length field, not a record.
const maxJournalPayload = 64 << 20

// JournalOp is a journaled job lifecycle transition.
type JournalOp string

const (
	// OpSubmitted records an accepted submission; the record carries
	// the Spec so the job can be replayed after a crash.
	OpSubmitted JournalOp = "submitted"
	// OpStarted recorded a worker picking the job up. The runner no
	// longer writes it, but journals from older binaries hold it: a
	// started job without a terminal record replays the same way a
	// queued one does.
	OpStarted JournalOp = "started"
	// OpDone, OpFailed, OpCanceled are terminal; a job with a terminal
	// record is not replayed on recovery.
	OpDone     JournalOp = "done"
	OpFailed   JournalOp = "failed"
	OpCanceled JournalOp = "canceled"
)

// terminal reports whether op ends a job's lifecycle.
func (op JournalOp) terminal() bool {
	return op == OpDone || op == OpFailed || op == OpCanceled
}

// JournalRecord is one journaled transition.
type JournalRecord struct {
	Seq  uint64    `json:"seq"`
	Time string    `json:"time,omitempty"` // RFC3339Nano, informational
	Op   JournalOp `json:"op"`
	ID   string    `json:"id"`
	Spec *Spec     `json:"spec,omitempty"` // set on OpSubmitted
	Err  string    `json:"err,omitempty"`  // set on OpFailed/OpCanceled
}

// Journal is an open job journal. Safe for concurrent use; Append
// serializes writers and fsyncs each record.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	seq       uint64
	truncated int64
	closed    bool
}

// OpenJournal opens (or creates) the journal at path and replays it,
// returning the journal positioned for appends plus every intact
// record in order. A torn tail is truncated in place; a file that does
// not start with the journal magic is refused rather than clobbered.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("job: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("job: journal open: %w", err)
	}
	j := &Journal{f: f, path: path}
	recs, err := j.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	for _, r := range recs {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, recs, nil
}

// replay reads every intact record, writes the header on a fresh file,
// and truncates any torn tail at the last good record boundary.
func (j *Journal) replay() ([]JournalRecord, error) {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return nil, fmt.Errorf("job: journal read: %w", err)
	}
	if len(data) == 0 {
		if _, err := j.f.Write([]byte(journalMagic)); err != nil {
			return nil, fmt.Errorf("job: journal header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("job: journal header sync: %w", err)
		}
		if err := syncDir(filepath.Dir(j.path)); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("job: %s is not a job journal (bad magic)", j.path)
	}
	var recs []JournalRecord
	good := int64(len(journalMagic)) // offset past the last intact record
	off := good
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break // clean end
		}
		if len(rest) < 8 {
			break // torn frame header
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxJournalPayload || int(n) > len(rest)-8 {
			break // implausible length or torn payload
		}
		payload := rest[8 : 8+int(n)]
		if crc32.ChecksumIEEE(payload) != want {
			break // corrupt record
		}
		var rec JournalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // framed but unparseable: treat as corruption
		}
		off += 8 + int64(n)
		good = off
		recs = append(recs, rec)
	}
	if good < int64(len(data)) {
		j.truncated = int64(len(data)) - good
		if err := j.f.Truncate(good); err != nil {
			return nil, fmt.Errorf("job: journal truncate torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("job: journal sync: %w", err)
		}
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("job: journal seek: %w", err)
	}
	return recs, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// TruncatedBytes reports how many torn-tail bytes OpenJournal dropped,
// for operator logs.
func (j *Journal) TruncatedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}

// Append journals one transition and fsyncs it. When Append returns
// nil the record is durable.
func (j *Journal) Append(op JournalOp, id string, spec *Spec, errText string) error {
	if id == "" {
		return errors.New("job: journal append: empty id")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("job: journal is closed")
	}
	j.seq++
	rec := JournalRecord{
		Seq:  j.seq,
		Time: time.Now().UTC().Format(time.RFC3339Nano),
		Op:   op,
		ID:   id,
		Spec: spec,
		Err:  errText,
	}
	return j.writeLocked(rec)
}

// writeLocked frames and writes one record and fsyncs. Callers hold
// j.mu.
func (j *Journal) writeLocked(rec JournalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("job: journal encode: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("job: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("job: journal fsync: %w", err)
	}
	return nil
}

// Compact atomically replaces the journal's contents with recs (the
// live jobs' submit records, after a recovery replay or once enough
// jobs have finished). The rewrite goes through a temp file + fsync + rename so a
// crash mid-compaction leaves either the old journal or the new one,
// never a mix. Records with Seq 0 are assigned fresh sequence numbers.
func (j *Journal) Compact(recs []JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("job: journal is closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("job: journal compact: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write([]byte(journalMagic)); err != nil {
		return fail(fmt.Errorf("job: journal compact header: %w", err))
	}
	for i := range recs {
		rec := recs[i]
		if rec.Seq == 0 {
			j.seq++
			rec.Seq = j.seq
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return fail(fmt.Errorf("job: journal compact encode: %w", err))
		}
		frame := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		copy(frame[8:], payload)
		if _, err := tmp.Write(frame); err != nil {
			return fail(fmt.Errorf("job: journal compact write: %w", err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("job: journal compact fsync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("job: journal compact close: %w", err))
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("job: journal compact rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// The old fd points at the unlinked inode; reopen the new file for
	// appends.
	old := j.f
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("job: journal reopen after compact: %w", err)
	}
	old.Close()
	j.f = f
	return nil
}

// Close fsyncs and closes the journal. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// PendingJobs returns, in submission order, the submit records of jobs
// that were still queued or running when the journal was written —
// i.e. those with a Spec-bearing OpSubmitted record and no terminal
// record. These are the jobs a recovering daemon must re-enqueue.
func PendingJobs(recs []JournalRecord) []JournalRecord {
	type lifecycle struct {
		submit JournalRecord
		done   bool
	}
	byID := make(map[string]*lifecycle)
	var order []string
	for _, r := range recs {
		lc, ok := byID[r.ID]
		if !ok {
			lc = &lifecycle{}
			byID[r.ID] = lc
			order = append(order, r.ID)
		}
		switch {
		case r.Op == OpSubmitted && r.Spec != nil:
			lc.submit = r
		case r.Op.terminal():
			lc.done = true
		}
	}
	var pending []JournalRecord
	for _, id := range order {
		lc := byID[id]
		if !lc.done && lc.submit.Spec != nil {
			pending = append(pending, lc.submit)
		}
	}
	return pending
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("job: dir sync open: %w", err)
	}
	serr := d.Sync()
	d.Close()
	if serr != nil {
		return fmt.Errorf("job: dir sync: %w", serr)
	}
	return nil
}

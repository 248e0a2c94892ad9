package job

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sync"

	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// ErrStore is the root of every durable-store fault: failed writes,
// failed fsyncs, failed renames. Callers that need to distinguish
// storage trouble from fold trouble test errors.Is(err, ErrStore).
var ErrStore = errors.New("job: store fault")

// Store is a checkpoint store partitioned into namespaces, each an
// independent pipeline.Checkpoint. The runner uses two kinds:
//   - stageNamespace, one for the whole store, holds every fold's stage
//     blobs under their content addresses ("<stage>/<hex digest>", see
//     pipeline.Addresses), so folds that agree up to a stage share it;
//   - one per job key (a Spec.Hash) holds that job's final snapshot,
//     profile and flight record.
//
// Implementations must be safe for concurrent use across namespaces
// and within one.
type Store interface {
	// Checkpoint returns the namespace for key, creating it on first
	// use.
	Checkpoint(key string) pipeline.Checkpoint
	// Delete drops every snapshot saved under key.
	Delete(key string) error
}

// stageNamespace is the store-wide namespace of stage blobs. A job key
// is 64 hex digits, so it never collides with a job's namespace.
const stageNamespace = "stages"

// MemStore is an in-process Store: fast, and gone with the process.
// Suitable for tests and for daemons that only want intra-lifetime
// resume (e.g. resubmission of an identical spec).
type MemStore struct {
	mu sync.Mutex
	m  map[string]*memCheckpoint
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string]*memCheckpoint)} }

// Checkpoint returns the in-memory namespace for key.
func (s *MemStore) Checkpoint(key string) pipeline.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, ok := s.m[key]
	if !ok {
		ck = &memCheckpoint{m: make(map[string][]byte)}
		s.m[key] = ck
	}
	return ck
}

// Delete drops the namespace for key.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

// memCheckpoint is one key's snapshot map.
type memCheckpoint struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *memCheckpoint) Load(stage string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[stage]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

func (c *memCheckpoint) Save(stage string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[stage] = append([]byte(nil), data...)
	return nil
}

// storeMagic heads every FileStore blob, followed by a 4-byte
// little-endian CRC32-IEEE of the payload. The frame turns silent
// media corruption into a detected miss: a blob whose checksum does
// not match is quarantined (renamed aside with a .corrupt suffix) and
// the caller re-folds, so corrupt bytes are never returned.
const storeMagic = "CFS1"

// corruptSuffix marks a quarantined blob. Quarantined files are left
// on disk for forensics and ignored by Load.
const corruptSuffix = ".corrupt"

// FileStore is a Store on a directory: one subdirectory per namespace
// (the stage namespace and each job key), one file per blob. Saves are
// atomic and durable — checksummed frame into a temp file, fsync,
// rename, fsync of the parent directory — so a crash or power loss
// mid-save never leaves a truncated or torn snapshot: at worst the
// blob is absent and its stage re-runs. Loads verify the
// checksum and quarantine corrupt blobs instead of returning them.
// This is the durable store behind a daemon that must survive
// restarts.
type FileStore struct {
	dir     string
	corrupt *obs.Counter
}

// NewFileStore returns a store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: checkpoint dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// Observe routes quarantine events to a corrupt-blob counter
// (obs.MStoreCorrupt). Call before the store sees traffic.
func (s *FileStore) Observe(corrupt *obs.Counter) { s.corrupt = corrupt }

// Checkpoint returns the file-backed namespace for key.
func (s *FileStore) Checkpoint(key string) pipeline.Checkpoint {
	return &fileCheckpoint{dir: filepath.Join(s.dir, encodeName(key)), s: s}
}

// Delete removes key's directory and everything under it.
func (s *FileStore) Delete(key string) error {
	return os.RemoveAll(filepath.Join(s.dir, encodeName(key)))
}

// fileCheckpoint stores each blob as one file. Keys may contain
// separators (stage addresses are "<stage>/<hex digest>"), so they are
// path-escaped into flat names.
type fileCheckpoint struct {
	dir string
	s   *FileStore
}

func (c *fileCheckpoint) Load(stage string) ([]byte, bool) {
	path := filepath.Join(c.dir, encodeName(stage))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if fault.Point(fault.PointStoreRead) != nil && len(data) > 8 {
		// Injected media rot: flip one payload byte in the bytes we
		// just read. The checksum below must catch it.
		data[8+(len(data)-8)/2] ^= 0x20
	}
	if len(data) < 8 || string(data[:4]) != storeMagic {
		c.quarantine(path)
		return nil, false
	}
	payload := data[8:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		c.quarantine(path)
		return nil, false
	}
	return payload, true
}

// quarantine moves a corrupt blob aside so the next Save starts clean,
// and counts it. The fold re-runs from the previous stage (or from
// scratch), so corruption heals transparently.
func (c *fileCheckpoint) quarantine(path string) {
	os.Remove(path + corruptSuffix)
	if os.Rename(path, path+corruptSuffix) == nil && c.s != nil {
		c.s.corrupt.Add(1)
	}
}

func (c *fileCheckpoint) Save(stage string, data []byte) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("%w: mkdir %s: %v", ErrStore, c.dir, err)
	}
	f, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("%w: create temp: %v", ErrStore, err)
	}
	tmp := f.Name()
	fail := func(op string, cause error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("%w: %s %s: %v", ErrStore, op, stage, cause)
	}
	var hdr [8]byte
	copy(hdr[:4], storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(data))
	if err := fault.Point(fault.PointStoreWrite); err != nil {
		// Simulated short write: part of the frame lands, then the
		// write fails. The temp file is discarded either way.
		f.Write(hdr[:])
		f.Write(data[:len(data)/2])
		return fail("write", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		return fail("write", err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("write", err)
	}
	if err := fault.Point(fault.PointStoreFsync); err != nil {
		return fail("fsync", err)
	}
	if err := f.Sync(); err != nil {
		return fail("fsync", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%w: close %s: %v", ErrStore, stage, err)
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, encodeName(stage))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%w: rename %s: %v", ErrStore, stage, err)
	}
	if err := syncDir(c.dir); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// encodeName flattens an arbitrary stage or key name into one safe
// path component ("/" becomes %2F).
func encodeName(name string) string { return url.PathEscape(name) }

// Package store persists sweep-point results on disk, content-
// addressed by the hash the caller computed over each point's full
// spec (exp's specFingerprint). The segment format is append-only
// NDJSON with batch-level checkpoints, so an interrupted campaign
// resumes from its last batch boundary and a crash can tear at most the
// final line (which recovery discards). Every committed point stays
// resident in the index, so after replay reads never touch the segment,
// and compaction rewrites the segment atomically from those points.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"radqec/internal/faultinject"
	"radqec/internal/sweep"
)

// SegmentName is the single append-only segment file inside a store
// directory.
const SegmentName = "segment.ndjson"

// lockName is the sidecar file carrying the directory's single-writer
// flock (the segment itself cannot carry it: compaction replaces its
// inode).
const lockName = "LOCK"

// ErrClosed is recorded when an operation reaches a closed store.
var ErrClosed = errors.New("store: closed")

// record is one NDJSON segment line. Kind is "commit" (a final point
// result), "ckpt" (batch-boundary progress of an unfinished point) or
// "del" (a tombstone invalidating an earlier hash).
type record struct {
	Kind  string             `json:"kind"`
	Hash  string             `json:"hash"`
	Point *sweep.CachedPoint `json:"point,omitempty"`
}

// envelope frames one segment line: the record's raw JSON plus the
// CRC32C of exactly those bytes, so replay can tell a bit-rotted
// record from a valid one without trusting JSON well-formedness (a
// flipped digit keeps a line parseable while silently changing its
// counts). A line without the envelope is as invalid as one whose
// checksum does not match.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// replayBuffer is the size of the buffer replay reads the segment
// through.
const replayBuffer = 64 << 10

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord frames one record as a checksummed segment line.
func encodeRecord(rec record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{CRC: crc32.Checksum(body, castagnoli), Rec: body})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// decodeLine validates one segment line against its envelope's
// checksum and decodes the record inside. Replay calls it for every
// line scanLine defers, and it is the reference scanLine is tested
// against.
func decodeLine(line []byte) (record, error) {
	var rec record
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return rec, err
	}
	if env.Rec == nil {
		return rec, fmt.Errorf("no crc envelope")
	}
	if crc32.Checksum(env.Rec, castagnoli) != env.CRC {
		return rec, fmt.Errorf("crc mismatch")
	}
	err := json.Unmarshal(env.Rec, &rec)
	return rec, err
}

// Options tunes a store.
type Options struct {
	// MaxCached is accepted and ignored: every committed point stays
	// resident in the index.
	MaxCached int
	// retryBackoff is the first retry's backoff; each further attempt
	// doubles it, with up to 50% random jitter. 0 picks
	// defaultRetryBackoff. Only the package's fault tests set it.
	retryBackoff time.Duration
	// probeInterval is how often a degraded store re-probes the
	// segment so writes re-arm once the fault clears. 0 picks
	// defaultProbeInterval. Only the package's fault tests set it.
	probeInterval time.Duration
}

// Fault-tolerance defaults for Options.
const (
	defaultRetryBackoff  = 2 * time.Millisecond
	defaultProbeInterval = 5 * time.Second
)

// writeRetries bounds how many times a failed segment append is retried
// (with exponential backoff and jitter) before the store degrades to
// read-through/no-write mode.
const writeRetries = 3

// Entry describes one committed point in the index.
type Entry struct {
	Hash  string `json:"hash"`
	Key   string `json:"key,omitempty"`
	Shots int    `json:"shots"`
}

// Stats is a point-in-time view of the store for health and metrics
// reporting.
type Stats struct {
	Commits      int   `json:"commits"`
	Checkpoints  int   `json:"checkpoints"`
	SegmentBytes int64 `json:"segment_bytes"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	// Resident equals Commits: every committed point is resident.
	Resident int `json:"resident"`
	// Degraded reports read-through/no-write mode: persistent write
	// failure disarmed appends until a background probe re-arms them.
	Degraded bool `json:"degraded,omitempty"`
	// Quarantined counts corrupt records skipped at replay — each one
	// recomputes instead of poisoning the store.
	Quarantined int `json:"quarantined,omitempty"`
	// WriteRetries / WriteErrors count transient append faults and the
	// attempts they consumed; Recoveries counts degraded→healthy
	// transitions.
	WriteRetries int64 `json:"write_retries,omitempty"`
	WriteErrors  int64 `json:"write_errors,omitempty"`
	Recoveries   int64 `json:"recoveries,omitempty"`
}

// Store is a content-addressed, crash-safe result store over one
// append-only NDJSON segment. All methods are safe for concurrent use;
// it implements sweep.PointCache.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // O_APPEND handle, read only by replay
	lock   *os.File // holds the directory's single-writer flock
	size   int64    // current segment size == next append offset
	closed bool
	fatal  error // unrecoverable fault (closed handle, bad state)

	// degraded write state: appends drop while degradedErr is set; a
	// background probe re-arms them once the segment accepts writes
	// again. Reads keep working throughout.
	degradedErr error
	probing     bool
	stopc       chan struct{}

	// commits holds the latest committed point per hash. Each one
	// passed replay's CRC check or arrived through Commit.
	commits map[string]*commitEntry
	// ckpts holds the latest checkpoint per hash lacking a commit.
	ckpts map[string]sweep.CachedPoint

	hits, misses        int64
	quarantined         int
	retries, writeFails int64
	recoveries          int64
}

// commitEntry is one resident committed point, kept leaner than a
// sweep.CachedPoint because there is one per commit: a legacy record's
// batch_rates stream is folded into its length when it is indexed.
type commitEntry struct {
	key                    string
	shots, errors, batches int
	converged              bool
}

func newCommitEntry(p *sweep.CachedPoint) *commitEntry {
	return &commitEntry{key: p.Key, shots: p.Shots, errors: p.Errors, batches: p.BatchCount(), converged: p.Converged}
}

func (ce *commitEntry) point() sweep.CachedPoint {
	return sweep.CachedPoint{Key: ce.key, Shots: ce.shots, Errors: ce.errors, Batches: ce.batches, Converged: ce.converged}
}

// Open opens (creating if needed) the store in dir and replays its
// segment into the in-memory index. A torn final line — the only
// damage a crash mid-append can cause — is truncated away so the
// segment stays appendable and every record before it survives.
func Open(dir string, opts Options) (*Store, error) {
	if opts.retryBackoff <= 0 {
		opts.retryBackoff = defaultRetryBackoff
	}
	if opts.probeInterval <= 0 {
		opts.probeInterval = defaultProbeInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One writer per directory: the CLI and the daemon share the store
	// format, and two processes appending with independent indexes
	// would each compact away the other's records. The advisory lock
	// turns that silent corruption into an immediate open error.
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is already open in another process (radqec -store and radqecd cannot share a directory concurrently): %w", dir, err)
	}
	path := filepath.Join(dir, SegmentName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		f:       f,
		lock:    lock,
		stopc:   make(chan struct{}),
		commits: make(map[string]*commitEntry),
		ckpts:   make(map[string]sweep.CachedPoint),
	}
	if err := s.replay(); err != nil {
		f.Close()
		lock.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the segment, building the index. Corruption is
// localised, not fatal: an invalid line with valid records after it is
// mid-segment damage (bit rot, partial overwrite) — the record is
// quarantined (skipped and counted) and everything after it still
// serves. An invalid run at the very end is the classic torn tail of a
// crash mid-append and is truncated away so the segment stays
// appendable.
//
// Lines are read in place from a bounded buffer (only a line longer than
// it is copied out, into one reused slice) and decoded by scanLine, which
// copies the strings the index keeps; a line it does not recognise goes
// to decodeLine.
func (s *Store) replay() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReaderSize(s.f, replayBuffer)
	var long []byte // a line longer than the buffer, reassembled
	var off int64   // bytes read so far
	var valid int64 // end of the last valid record
	pending := 0    // invalid lines since the last valid record
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err == io.EOF {
			// No trailing newline: a torn final line. Drop it.
			break
		}
		if err != nil {
			return fmt.Errorf("store: replay: %w", err)
		}
		off += int64(len(line))
		rec, verdict := scanLine(line)
		if verdict == scanDefer {
			var derr error
			if rec, derr = decodeLine(line); derr != nil {
				verdict = scanBad
			}
		}
		if verdict == scanBad {
			pending++
			continue
		}
		// A valid record past invalid lines proves the damage was
		// mid-segment, not a torn tail: quarantine what we skipped.
		s.quarantined += pending
		pending = 0
		s.apply(rec)
		valid = off
	}
	s.size = valid
	if fi, err := s.f.Stat(); err == nil && fi.Size() > valid {
		if err := s.f.Truncate(valid); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	return nil
}

// apply folds one replayed record into the index.
func (s *Store) apply(rec record) {
	switch rec.Kind {
	case "commit":
		if rec.Point == nil {
			return
		}
		s.commits[rec.Hash] = newCommitEntry(rec.Point)
		delete(s.ckpts, rec.Hash)
	case "ckpt":
		if rec.Point == nil {
			return
		}
		if _, committed := s.commits[rec.Hash]; !committed {
			s.ckpts[rec.Hash] = *rec.Point
		}
	case "del":
		delete(s.commits, rec.Hash)
		delete(s.ckpts, rec.Hash)
	}
}

// append writes one record line and reports whether it landed. Transient
// write failures retry with exponential backoff and jitter; exhausting
// the retry budget degrades the store to read-through/no-write mode (a
// background probe re-arms writes) instead of failing the sweep hot
// path. Only structural faults — closed store, unmarshalable record —
// are fatal.
func (s *Store) append(rec record) bool {
	if s.closed {
		s.setFatal(ErrClosed)
		return false
	}
	if s.fatal != nil || s.degradedErr != nil {
		return false
	}
	line, err := encodeRecord(rec)
	if err != nil {
		s.setFatal(err)
		return false
	}
	if !s.writeRetrying(line) {
		return false
	}
	s.size += int64(len(line))
	return true
}

// writeRetrying attempts one line write with bounded
// exponential-backoff retries. Called with s.mu held; the backoff
// sleeps hold the lock deliberately — a store whose disk is failing
// must not let other writers interleave half-states, and the total
// worst-case hold (sum of defaultRetryBackoff doublings) is ~20ms.
func (s *Store) writeRetrying(line []byte) bool {
	const attempts = 1 + writeRetries
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.retries++
			// Exponential backoff with up to 50% jitter, and a
			// truncate back to the last durable offset so a torn
			// partial write from the failed attempt can't corrupt the
			// segment mid-file.
			backoff := s.opts.retryBackoff << (attempt - 1)
			backoff += time.Duration(rand.Int64N(int64(backoff)/2 + 1))
			time.Sleep(backoff)
			if err := s.f.Truncate(s.size); err != nil {
				lastErr = err
				continue
			}
		}
		if err := s.injectedWriteFault(); err != nil {
			lastErr = err
			continue
		}
		if _, err := s.f.Write(line); err != nil {
			lastErr = err
			continue
		}
		return true
	}
	s.writeFails++
	s.degrade(fmt.Errorf("store: append failed after %d attempts: %w", attempts, lastErr))
	return false
}

// injectedWriteFault evaluates the store write failpoints: an injected
// error fails the attempt; an injected slow write sleeps in place.
func (s *Store) injectedWriteFault() error {
	if err := faultinject.Eval(faultinject.StoreWriteError); err != nil {
		return err
	}
	return faultinject.Eval(faultinject.StoreWriteSlow)
}

// setFatal records an unrecoverable fault. The store stops writing for
// good; Err/Sync/Close surface the error.
func (s *Store) setFatal(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
}

// degrade flips the store into read-through/no-write mode and starts
// the background probe that re-arms writes once the segment accepts
// them again. Called with s.mu held.
func (s *Store) degrade(err error) {
	if s.degradedErr != nil {
		return
	}
	s.degradedErr = err
	if !s.probing && !s.closed {
		s.probing = true
		go s.probeLoop()
	}
}

// probeLoop periodically re-probes a degraded segment until writes
// recover or the store closes.
func (s *Store) probeLoop() {
	t := time.NewTicker(s.opts.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			s.mu.Lock()
			s.probing = false
			s.mu.Unlock()
			return
		case <-t.C:
			if s.Probe() {
				return
			}
		}
	}
}

// Probe tests whether a degraded segment accepts writes again and, if
// so, re-arms appends. Returns true when the store is healthy (or
// permanently done probing). Exposed so tests and operators can force
// a recovery check without waiting out probeInterval.
func (s *Store) Probe() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.fatal != nil {
		s.probing = false
		return true
	}
	if s.degradedErr == nil {
		s.probing = false
		return true
	}
	if err := s.injectedWriteFault(); err != nil {
		return false
	}
	// Truncate to the last durable offset (clearing any torn bytes a
	// failed attempt left) and sync; success means the device is
	// writable again.
	if err := s.f.Truncate(s.size); err != nil {
		return false
	}
	if err := s.f.Sync(); err != nil {
		return false
	}
	s.degradedErr = nil
	s.probing = false
	s.recoveries++
	return true
}

// Lookup returns the committed result for a hash.
func (s *Store) Lookup(hash string) (sweep.CachedPoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ce, ok := s.commits[hash]
	if !ok {
		s.misses++
		return sweep.CachedPoint{}, false
	}
	s.hits++
	return ce.point(), true
}

// LookupPartial returns the latest checkpoint of an uncommitted hash.
func (s *Store) LookupPartial(hash string) (sweep.CachedPoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ckpts[hash]
	return p, ok
}

// Checkpoint appends batch-boundary progress for a hash.
func (s *Store) Checkpoint(hash string, p sweep.CachedPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.append(record{Kind: "ckpt", Hash: hash, Point: &p}) {
		s.ckpts[hash] = p
	}
}

// Commit appends the final result for a hash, superseding its
// checkpoints.
func (s *Store) Commit(hash string, p sweep.CachedPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.append(record{Kind: "commit", Hash: hash, Point: &p}) {
		s.commits[hash] = newCommitEntry(&p)
		delete(s.ckpts, hash)
	}
}

// Invalidate drops one hash, appending a tombstone so the deletion
// survives restarts until the next compaction folds it away.
func (s *Store) Invalidate(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, hadCommit := s.commits[hash]
	_, hadCkpt := s.ckpts[hash]
	if !hadCommit && !hadCkpt {
		return false
	}
	if s.append(record{Kind: "del", Hash: hash}) {
		delete(s.commits, hash)
		delete(s.ckpts, hash)
		return true
	}
	return false
}

// Clear empties the store, atomically replacing the segment. The disk
// rewrite happens first: if it fails, the in-memory index still
// matches the (unchanged) segment instead of silently diverging until
// the next reopen resurrects everything.
func (s *Store) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rewriteLocked(nil); err != nil {
		return err
	}
	s.commits = make(map[string]*commitEntry)
	s.ckpts = make(map[string]sweep.CachedPoint)
	return nil
}

// Compact rewrites the segment to its live records only — the latest
// commit per hash plus the latest checkpoint of every uncommitted hash
// — via a temp file and an atomic rename, so readers of the directory
// always see a whole segment. The commits are written from the resident
// index, so a line that rotted on disk after Open is rewritten from its
// verified copy instead of dropped.
//
// Uncommitted checkpoints survive compaction deliberately: they are
// what makes a killed campaign resumable. The cost is that a
// checkpoint whose campaign is never resumed (e.g. its shot policy
// changed, moving the content hash) lingers until it is invalidated
// or the store is cleared; checkpoints are small, but a long-lived
// store that accumulates many abandoned ones reclaims them with
// Invalidate/Clear.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	hashes := make([]string, 0, len(s.commits))
	for h := range s.commits {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	recs := make([]record, 0, len(hashes)+len(s.ckpts))
	for _, h := range hashes {
		p := s.commits[h].point()
		recs = append(recs, record{Kind: "commit", Hash: h, Point: &p})
	}
	ckptHashes := make([]string, 0, len(s.ckpts))
	for h := range s.ckpts {
		ckptHashes = append(ckptHashes, h)
	}
	sort.Strings(ckptHashes)
	for _, h := range ckptHashes {
		pt := s.ckpts[h]
		recs = append(recs, record{Kind: "ckpt", Hash: h, Point: &pt})
	}
	return s.rewriteLocked(recs)
}

// rewriteLocked atomically replaces the segment with the given records.
func (s *Store) rewriteLocked(recs []record) error {
	if s.closed {
		return ErrClosed
	}
	path := filepath.Join(s.dir, SegmentName)
	tmp, err := os.CreateTemp(s.dir, SegmentName+".tmp*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	var size int64
	for i := range recs {
		line, err := encodeRecord(recs[i])
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		if _, err := w.Write(line); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		size += int64(len(line))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The rename already happened: the old handle points at an
		// unlinked inode, so appending to it would silently lose every
		// later record. That is unrecoverable — fail fatally so appends
		// drop and Err/Sync/Close surface the fault.
		err = fmt.Errorf("store: compact: reopen after rename: %w", err)
		s.setFatal(err)
		s.closed = true
		s.f.Close()
		return err
	}
	s.f.Close()
	s.f = f
	s.size = size
	// A whole fresh segment on a new inode: whatever degraded the old
	// handle no longer applies.
	s.degradedErr = nil
	return nil
}

// Entries lists the committed points, hash-sorted.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.commits))
	for h, ce := range s.commits {
		out = append(out, Entry{Hash: h, Key: ce.key, Shots: ce.shots})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// Stats reports the store's current shape and traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Commits:      len(s.commits),
		Checkpoints:  len(s.ckpts),
		SegmentBytes: s.size,
		Hits:         s.hits,
		Misses:       s.misses,
		Resident:     len(s.commits),
		Degraded:     s.degradedErr != nil,
		Quarantined:  s.quarantined,
		WriteRetries: s.retries,
		WriteErrors:  s.writeFails,
		Recoveries:   s.recoveries,
	}
}

// Err returns the store's current fault, if any: a fatal error first,
// else the degraded-mode cause (wrapped, so callers can tell a store
// that will never write again from one that is waiting out a transient
// device fault).
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errLocked()
}

func (s *Store) errLocked() error {
	if s.fatal != nil {
		return s.fatal
	}
	if s.degradedErr != nil {
		return fmt.Errorf("store: degraded (writes disabled, reads serve): %w", s.degradedErr)
	}
	return nil
}

// Sync flushes the segment to stable storage and surfaces any
// swallowed write fault.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.errLocked()
	}
	if err := s.f.Sync(); err != nil {
		s.degrade(err)
	}
	return s.errLocked()
}

// Close syncs and closes the segment. Appends after Close are dropped
// (recorded as ErrClosed), so a signal handler can Close concurrently
// with in-flight sweep workers.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.errLocked()
	}
	s.closed = true
	close(s.stopc) // stops the degraded-mode probe loop, if running
	if err := s.f.Sync(); err != nil {
		s.setFatal(err)
	}
	if err := s.f.Close(); err != nil {
		s.setFatal(err)
	}
	s.lock.Close() // releases the directory's single-writer flock
	return s.errLocked()
}

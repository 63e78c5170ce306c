// Package memostore is the persistent half of the classification memo:
// a crash-safe, content-addressed on-disk store mapping live-in
// fingerprints (vproc.Fingerprint) to dual-order replay results. The
// in-memory classify.Memo already shares results within one process;
// this store makes them survive restarts and lets every tenant of a
// long-running `racer serve` daemon benefit from every other tenant's
// replays — equal fingerprints imply equal results, so sharing is
// always sound (docs/PERFORMANCE.md carries the invariant).
//
// The store is engineered for failure first:
//
//   - Writes are atomic: each entry lands in a temp file in the store
//     directory and is renamed into place, so a crash mid-write leaves
//     at worst an orphaned temp file (swept on Open), never a torn
//     entry under a valid name.
//   - Entries are self-verifying: a versioned magic header, an explicit
//     payload length, and a SHA-256 checksum over the payload. Any
//     mismatch — truncation, bit rot, a foreign file, a future format
//     version — degrades to a cache miss (counted on
//     memostore.corrupt), never an error: a damaged cache costs a
//     replay, not an outage. Corrupt entries are deleted on detection.
//   - The store is size-bounded: when the configured byte cap is
//     exceeded, entries are evicted oldest-first (insertion order,
//     mtime order for entries inherited from a previous process) until
//     the store fits. Evictions are counted on memostore.evictions.
//
// Counters (nil registry disables them, as everywhere in obs):
//
//	memostore.hits       entries served from disk
//	memostore.misses     lookups that found no (valid) entry
//	memostore.evictions  entries removed by the size-bounded GC
//	memostore.corrupt    entries rejected by verification and deleted
//	memostore.entries    gauge: resident entries
//	memostore.bytes      gauge: resident bytes
package memostore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/vproc"
)

// magic opens every entry file: 5 fixed bytes plus a format version
// byte. Bumping the version makes old processes treat new entries as
// corrupt (a miss) rather than misparse them.
var magic = []byte{'R', 'M', 'E', 'M', 'O', 1}

// headerLen is magic + a uint32 little-endian payload length.
const headerLen = len("RMEMO") + 1 + 4

// checksumLen is the SHA-256 trailer over the payload.
const checksumLen = sha256.Size

// DefaultMaxBytes bounds the store when Options.MaxBytes is zero:
// generous for a cache of replay verdicts (entries are tens to hundreds
// of bytes), small next to the logs they were derived from.
const DefaultMaxBytes = 256 << 20

// Options configures Open.
type Options struct {
	// MaxBytes caps the store's on-disk payload footprint; exceeding it
	// triggers oldest-first eviction. Zero means DefaultMaxBytes;
	// negative means unbounded.
	MaxBytes int64
	// Metrics receives the memostore.* counters (nil is off).
	Metrics *obs.Registry
}

// Store is a persistent fingerprint → vproc.Result cache rooted at one
// directory. It is safe for concurrent use by the analysis workers of
// one process; concurrent processes sharing a directory stay
// crash-consistent (atomic renames) but may duplicate work.
//
// Store implements classify.Backing, so it plugs in behind an
// in-memory classify.Memo via classify.NewMemoBacked.
type Store struct {
	dir string
	max int64 // < 0 = unbounded

	cHits, cMisses, cEvict, cCorrupt *obs.Counter
	gEntries, gBytes                 *obs.Gauge

	mu      sync.Mutex
	entries map[vproc.Fingerprint]entryInfo
	bytes   int64
	clock   int64 // insertion sequence for oldest-first eviction
}

type entryInfo struct {
	size int64
	seq  int64
}

// Open creates (or reopens) a store rooted at dir, sweeping orphaned
// temp files and indexing the surviving entries. Entries left by a
// previous process are ordered for eviction by their file modification
// time — oldest evicts first. If the inherited contents already exceed
// the cap, Open GCs immediately.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	max := opts.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	reg := opts.Metrics
	s := &Store{
		dir:      dir,
		max:      max,
		cHits:    reg.Counter("memostore.hits"),
		cMisses:  reg.Counter("memostore.misses"),
		cEvict:   reg.Counter("memostore.evictions"),
		cCorrupt: reg.Counter("memostore.corrupt"),
		gEntries: reg.Gauge("memostore.entries"),
		gBytes:   reg.Gauge("memostore.bytes"),
		entries:  map[vproc.Fingerprint]entryInfo{},
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type onDisk struct {
		fp    vproc.Fingerprint
		size  int64
		mtime int64
	}
	var found []onDisk
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash between create and rename leaves these; they were
			// never visible as entries, so removal loses nothing.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		fp, ok := parseEntryName(name)
		if !ok {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{fp: fp, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return bytes.Compare(found[i].fp[:], found[j].fp[:]) < 0
	})
	for _, f := range found {
		s.clock++
		s.entries[f.fp] = entryInfo{size: f.size, seq: s.clock}
		s.bytes += f.size
	}
	s.mu.Lock()
	s.gcLocked()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// entryName is "<64 hex chars>.memo".
func entryName(fp vproc.Fingerprint) string {
	return hex.EncodeToString(fp[:]) + ".memo"
}

func parseEntryName(name string) (vproc.Fingerprint, bool) {
	var fp vproc.Fingerprint
	base, ok := strings.CutSuffix(name, ".memo")
	if !ok || len(base) != 2*len(fp) {
		return fp, false
	}
	b, err := hex.DecodeString(base)
	if err != nil {
		return fp, false
	}
	copy(fp[:], b)
	return fp, true
}

// Get returns the stored result for fp. Every failure mode — absent
// entry, unreadable file, bad header, short payload, checksum mismatch,
// undecodable payload — is a miss; verification failures additionally
// count as corrupt and delete the offending file.
func (s *Store) Get(fp vproc.Fingerprint) (vproc.Result, bool) {
	var zero vproc.Result
	s.mu.Lock()
	_, known := s.entries[fp]
	s.mu.Unlock()
	if !known {
		s.cMisses.Inc()
		return zero, false
	}
	path := filepath.Join(s.dir, entryName(fp))
	data, err := os.ReadFile(path)
	if err != nil {
		// Raced with an eviction (or the file vanished underneath us):
		// a plain miss, the index catches up lazily.
		s.dropIndexed(fp)
		s.cMisses.Inc()
		return zero, false
	}
	res, err := decodeEntry(data)
	if err != nil {
		s.cCorrupt.Inc()
		s.cMisses.Inc()
		os.Remove(path)
		s.dropIndexed(fp)
		return zero, false
	}
	s.cHits.Inc()
	return res, true
}

// Put stores res under fp. First writer wins — an existing entry is
// left untouched (equal fingerprints imply equal results, so there is
// nothing to update). Write failures are swallowed: a cache that
// cannot persist degrades to not caching, it does not fail the
// analysis that produced the result.
func (s *Store) Put(fp vproc.Fingerprint, res vproc.Result) {
	s.mu.Lock()
	_, exists := s.entries[fp]
	s.mu.Unlock()
	if exists {
		return
	}
	data, err := encodeEntry(res)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmpName)
		return
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, entryName(fp))); err != nil {
		os.Remove(tmpName)
		return
	}
	s.mu.Lock()
	if _, exists := s.entries[fp]; !exists {
		s.clock++
		s.entries[fp] = entryInfo{size: int64(len(data)), seq: s.clock}
		s.bytes += int64(len(data))
	}
	s.gcLocked()
	s.publishLocked()
	s.mu.Unlock()
}

// dropIndexed removes fp from the index without touching counters.
func (s *Store) dropIndexed(fp vproc.Fingerprint) {
	s.mu.Lock()
	if e, ok := s.entries[fp]; ok {
		delete(s.entries, fp)
		s.bytes -= e.size
	}
	s.publishLocked()
	s.mu.Unlock()
}

// gcLocked evicts oldest-first until the store fits the cap. Callers
// hold s.mu.
func (s *Store) gcLocked() {
	if s.max < 0 || s.bytes <= s.max {
		return
	}
	type victim struct {
		fp  vproc.Fingerprint
		seq int64
	}
	var order []victim
	for fp, e := range s.entries {
		order = append(order, victim{fp: fp, seq: e.seq})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	for _, v := range order {
		if s.bytes <= s.max {
			break
		}
		e := s.entries[v.fp]
		delete(s.entries, v.fp)
		s.bytes -= e.size
		os.Remove(filepath.Join(s.dir, entryName(v.fp)))
		s.cEvict.Inc()
	}
}

func (s *Store) publishLocked() {
	s.gEntries.Set(float64(len(s.entries)))
	s.gBytes.Set(float64(s.bytes))
}

// Close publishes the final gauges. Every write was already durable
// (synced temp file + rename), so Close has nothing to flush; it exists
// so shutdown paths read naturally and stay correct if buffering is
// ever added.
func (s *Store) Close() error {
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return nil
}

// encodeEntry serializes one result: magic+version, payload length,
// JSON payload, SHA-256 trailer.
func encodeEntry(res vproc.Result) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, headerLen+len(payload)+checksumLen)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return out, nil
}

// decodeEntry verifies and decodes one entry file.
func decodeEntry(data []byte) (vproc.Result, error) {
	var res vproc.Result
	if len(data) < headerLen+checksumLen {
		return res, fmt.Errorf("memostore: entry too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != string(magic) {
		return res, fmt.Errorf("memostore: bad magic or version")
	}
	n := binary.LittleEndian.Uint32(data[len(magic):headerLen])
	if int(n) != len(data)-headerLen-checksumLen {
		return res, fmt.Errorf("memostore: length mismatch (header %d, payload %d)",
			n, len(data)-headerLen-checksumLen)
	}
	payload := data[headerLen : headerLen+int(n)]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[headerLen+int(n):]) {
		return res, fmt.Errorf("memostore: checksum mismatch")
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		return res, fmt.Errorf("memostore: undecodable payload: %w", err)
	}
	return res, nil
}

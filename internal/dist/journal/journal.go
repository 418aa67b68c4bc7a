// Package journal implements the checkpoint journal that lets huge sweep
// batches survive restarts: an append-only NDJSON file whose first line is
// a header pinning the input batch (a content hash plus the item count),
// followed by one entry per completed item carrying the item's input index
// and its exact result line.
//
// The format is deliberately crash-tolerant in one specific way: a process
// killed mid-append leaves a truncated final line, and replay tolerates
// exactly that — the torn line is discarded (and the file truncated back to
// the last complete entry so later appends stay valid NDJSON). Any other
// corruption — a torn line in the middle, an entry index out of range, a
// header that does not parse — is an error, because silently skipping it
// would re-emit or drop results. Resuming against a journal whose batch
// hash does not match the input batch is refused outright: the journal's
// completed lines would belong to a different design space.
//
// Entries carry input indices, not names, so a distributed coordinator can
// append unit results out of input order. Duplicate entries for one index
// are legal (a unit re-leased after a slow worker finally reported, or a
// crash between append and lease bookkeeping) and replay keeps the first
// occurrence.
//
// One reader serves Open (resume), Replay (read-only) and Stat (counts
// only); Open and Replay return the entries sorted by input index. A
// read costs one pass over the file: an entry in the form Record writes
// is validated in one scan and its line kept in place, one allocation
// per line (about 1.2 µs for a 336-byte line on a 2-vCPU host), and only
// a line in another form (hand-edited, spaced, keys reordered) goes
// through encoding/json's decode and compaction, at about eight times
// that.
package journal

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// Version is the journal format version written into headers; the reader
// refuses files written by a different version.
const Version = 1

// Header is the first line of a journal: it pins the input batch so a
// resume against different input fails loudly instead of splicing results
// from two different design spaces.
type Header struct {
	// V is the format version (Version).
	V int `json:"v"`
	// Kind names the payload family, e.g. "scenario-batch"; resuming a
	// journal of one kind against input of another is refused.
	Kind string `json:"kind"`
	// BatchSHA256 is the hex content hash of the canonical input batch.
	BatchSHA256 string `json:"batch_sha256"`
	// N is the number of items in the batch; entry indices live in [0, N).
	N int `json:"n"`
}

// Entry is one completed item: its input index and the exact NDJSON result
// line (compact JSON, no trailing newline).
type Entry struct {
	I    int             `json:"i"`
	Line json.RawMessage `json:"line"`
}

// Hash renders v as canonical JSON and returns the hex SHA-256 — the
// content hash stored in headers. Two batches hash equal exactly when their
// JSON forms are byte-identical.
func Hash(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("journal: hashing batch: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Journal is an open checkpoint file. Append and Record append entries;
// all methods are safe only for one goroutine at a time (callers
// serialize — the coordinator appends under its state lock, the
// single-process stream appends from the emitting loop).
type Journal struct {
	f *os.File
}

// Create starts a fresh journal at path, truncating any previous file, and
// writes the header.
func Create(path string, h Header) (*Journal, error) {
	h.V = Version
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	line, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Open is the front door for checkpointed runs: with resume false it always
// starts fresh (Create); with resume true it resumes an existing journal,
// or starts fresh when none exists yet — so one command line serves both
// the first run and every restart. Resuming verifies the header against h
// (version, kind, batch hash, item count), returns the completed entries
// sorted by input index, and truncates a torn final line away so appends
// continue valid NDJSON.
func Open(path string, h Header, resume bool) (*Journal, []Entry, error) {
	if !resume {
		j, err := Create(path, h)
		return j, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return Open(path, h, false)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	s, err := scan(f, &h)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(s.end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f}, s.entries, nil
}

// Replay reads a journal without modifying it: it verifies the header
// against want and returns the completed entries sorted by input index —
// the read side of the format, for reassembling a result set from a
// finished (or partial) checkpoint. Unlike Open it opens the file
// read-only and leaves a torn final line in place (still discarding it
// from the result), so it is safe to run against a journal another
// process is appending to.
func Replay(path string, want Header) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	s, err := scan(f, &want)
	return s.entries, err
}

// maxItems bounds the item count of a header read without an expected
// header (Stat): the largest batch the repository documents, so a hostile
// count is refused before its bitset is allocated.
const maxItems = 1 << 24

// scanned is what one pass of the reader found: the header, the first
// occurrence of each completed index sorted by index (only with an
// expected header), their count, the offset just past the last complete
// line, and whether a torn final line follows it.
type scanned struct {
	h       Header
	entries []Entry
	done    int
	end     int64
	torn    bool
}

// scan is the one reader of the format. It checks the header — against
// want when non-nil, else against maxItems — and then every complete
// entry, keeping the first occurrence of each index through a seen-index
// bitset. With want it also retains the entries' lines; without, it only
// counts, in O(N/8) memory however large the results are.
func scan(f *os.File, want *Header) (scanned, error) {
	r := bufio.NewReader(f)
	headLine, err := r.ReadBytes('\n')
	if err != nil {
		return scanned{}, fmt.Errorf("journal: unreadable header: %w", err)
	}
	var s scanned
	h := &s.h
	if err := json.Unmarshal(headLine, h); err != nil {
		return scanned{}, fmt.Errorf("journal: malformed header: %w", err)
	}
	switch {
	case h.V != Version:
		return scanned{}, fmt.Errorf("journal: format version %d, want %d", h.V, Version)
	case want == nil && (h.N <= 0 || h.N > maxItems):
		return scanned{}, fmt.Errorf("journal: header item count %d outside (0, %d]", h.N, maxItems)
	case want == nil:
		// Stat: the file's own header is the identity it reports.
	case h.Kind != want.Kind:
		return scanned{}, fmt.Errorf("journal: kind %q, want %q", h.Kind, want.Kind)
	case h.BatchSHA256 != want.BatchSHA256:
		return scanned{}, fmt.Errorf("journal: batch hash mismatch: journal has %s, input batch is %s (refusing to resume against a different batch)", h.BatchSHA256, want.BatchSHA256)
	case h.N != want.N:
		return scanned{}, fmt.Errorf("journal: batch has %d items, journal expects %d", want.N, h.N)
	}
	s.end = int64(len(headLine))

	seen := make([]uint64, (h.N+63)/64)
	for {
		line, err := r.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			// No trailing newline: either a clean EOF (empty tail) or the
			// torn final line of a crashed append. Both are discarded —
			// Open truncates the file back to end.
			s.torn = len(line) > 0
			break
		}
		if err != nil {
			return scanned{}, fmt.Errorf("journal: %w", err)
		}
		at := s.end
		s.end += int64(len(line))
		// The form Record writes is checked in one pass and kept in
		// place; any other line (hand-edited, reordered, spaced) takes
		// encoding/json's decode, and its compaction below.
		e, recorded := parseEntry(line)
		if !recorded {
			d := new(Entry) // its own variable, so e stays off the heap
			if err := json.Unmarshal(line, d); err != nil {
				return scanned{}, fmt.Errorf("journal: corrupt entry at byte %d: %w", at, err)
			}
			e = *d
		}
		if e.I < 0 || e.I >= h.N {
			return scanned{}, fmt.Errorf("journal: entry index %d out of range [0, %d)", e.I, h.N)
		}
		if seen[e.I/64]&(1<<(e.I%64)) != 0 {
			continue // a later duplicate: the first occurrence wins
		}
		seen[e.I/64] |= 1 << (e.I % 64)
		s.done++
		if !recorded {
			compact := &bytes.Buffer{}
			if err := json.Compact(compact, e.Line); err != nil {
				return scanned{}, fmt.Errorf("journal: corrupt entry line at byte %d: %w", at, err)
			}
			e.Line = compact.Bytes()
		}
		if want != nil {
			s.entries = append(s.entries, e)
		}
	}
	slices.SortFunc(s.entries, func(a, b Entry) int { return cmp.Compare(a.I, b.I) })
	return s, nil
}

// Stats summarizes a checkpoint journal: what it pins (kind, batch hash,
// item count) and how far it got (distinct completed indices) — the
// offline twin of the coordinator's /v1/status, computable from the file
// alone.
type Stats struct {
	Kind        string `json:"kind"`
	BatchSHA256 string `json:"batch_sha256"`
	// N is the batch size; Done counts distinct completed indices.
	N    int `json:"n"`
	Done int `json:"items_done"`
	// Complete reports Done == N: the journal holds every result line.
	Complete bool `json:"complete"`
	// TornTail reports a truncated final line — the signature of a run
	// killed mid-append. Harmless (a resume discards it), but worth
	// surfacing to an operator wondering why a run stopped.
	TornTail bool `json:"torn_tail,omitempty"`
}

// Stat scans a journal and counts completed items without retaining a
// single result line — O(N/8) memory (a seen-index bitset) however large
// the results are, so it is safe to point at a multi-gigabyte checkpoint.
// Unlike Replay it needs no expected header: the summary describes
// whatever batch the file itself pins, and a header counting more items
// than any documented batch is refused. Corruption rules match Replay —
// a torn final line is tolerated (and reported), anything else errors.
func Stat(path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	s, err := scan(f, nil)
	if err != nil {
		return Stats{}, err
	}
	return Stats{Kind: s.h.Kind, BatchSHA256: s.h.BatchSHA256, N: s.h.N, Done: s.done,
		Complete: s.done == s.h.N, TornTail: s.torn}, nil
}

// Append writes entries, whole lines as AppendEntry makes them, in a
// single write syscall, so a crash leaves a prefix of complete entries
// and at worst one torn final line — which Open tolerates. A write that
// fails part-way may leave some entries behind; appending them again only
// adds duplicates, which replay resolves first-wins. Nothing is fsynced,
// because results are recomputable: the write survives a process crash
// in the page cache, not a power loss.
func (j *Journal) Append(entries []byte) error {
	if _, err := j.f.Write(entries); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Record appends one completed item, Append's one-entry case: its input
// index and its exact result line (compact JSON, no trailing newline).
//
//lint:allow deadexport perfbench's traced service pass (a module of its own) and journal's tests record entries one at a time
func (j *Journal) Record(i int, line []byte) error {
	data, _, err := AppendEntry(nil, i, line)
	if err != nil {
		return err
	}
	return j.Append(data)
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Package store is the content-addressed result store behind the sweep
// service: an append-only directory of per-batch checkpoint journals (the
// exact internal/dist/journal format, one file per batch, named by the
// batch's content identity) plus a per-item key index, so results survive
// service restarts and are shared across batches.
//
// Layout of a store directory:
//
//	<kind>-<hash>.journal     one journal per admitted batch (journal.Header
//	                          pins kind, hash, item count; entries carry
//	                          completed result lines by input index)
//	<kind>-<hash>.batch.json  the batch's spec record: its full-range wire
//	                          payload plus an admission sequence number, so
//	                          a restarted service can rebuild and re-queue
//	                          every batch the store has ever admitted
//	items.idx                 append-only NDJSON index mapping work.ItemKeyer
//	                          keys to (batch, index) — the per-item lookup
//	                          that lets a new batch adopt lines computed for
//	                          an overlapping earlier batch of any kind
//
// Because per-batch journals are ordinary checkpoint journals, a
// single-process `-checkpoint` file copied into the store under its
// batch's name is adopted wholesale (hash-verified on admission), and a
// store journal can be read back by `sweepd journal` like any other
// checkpoint — the store is the checkpoint journal generalized across
// batches, not a second format. OpenFile is the degenerate case: a store
// over one journal file and nothing else, which is what a one-shot
// `sweepd serve -checkpoint FILE` runs on.
//
// Crash tolerance follows the journal's rules: appends are single writes,
// a torn final line (journal or index) is discarded on open, and any
// deeper corruption is an error. The store never re-derives a result line
// — every cached line was recorded exactly as some batch executed it, and
// the ItemKeyer contract (equal keys ⇒ byte-identical lines) is what
// makes serving it to a different batch sound.
package store

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"repro/internal/dist/journal"
	"repro/internal/sweep"
	"repro/internal/work"
)

// BatchID is the store identity of a batch: its kind and content hash
// joined — the stem of its journal and spec-record file names, and the
// batch ID the service's HTTP API exposes.
func BatchID(kind, hash string) string { return kind + "-" + hash }

// Record is the durable spec of one admitted batch: everything a
// restarted service needs to rebuild it (work.Unmarshal of Kind/Payload)
// and re-queue it in the original admission order (Seq).
type Record struct {
	Seq         int64           `json:"seq"`
	Kind        string          `json:"kind"`
	BatchSHA256 string          `json:"batch_sha256"`
	N           int             `json:"n"`
	Payload     json.RawMessage `json:"payload"`
}

// ID is the batch's store identity.
func (r Record) ID() string { return BatchID(r.Kind, r.BatchSHA256) }

// idxEntry is one line of items.idx: an item key and the batch journal
// (plus index) holding its line. First occurrence wins, like journal
// entries.
type idxEntry struct {
	Key   string `json:"key"`
	Batch string `json:"b"`
	I     int    `json:"i"`
}

// itemRef locates one cached line: the journal of batch ID at index I.
type itemRef struct {
	batch string
	i     int
}

// Store is an open store directory. Admit and Record calls are safe for
// concurrent use; per-batch handles must not be duplicated (one live
// Handle per batch ID — the service's submit path guarantees it).
type Store struct {
	dir  string
	file string // OpenFile's journal path; empty for a store directory

	mu    sync.Mutex
	idx   *os.File           // items.idx, positioned for appending
	items map[string]itemRef // item key -> first recorded location
	recs  map[string]Record  // batch ID -> spec record
	seq   int64              // highest admission sequence seen
}

// Open opens (creating if needed) a store directory: it loads every
// batch spec record, replays items.idx — truncating a torn final line,
// keeping the first occurrence of each key — and leaves the index
// positioned for appending.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, items: make(map[string]itemRef), recs: make(map[string]Record)}
	if err := s.loadRecords(); err != nil {
		return nil, err
	}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenFile opens a store over the single journal at path: Admit resumes
// that journal (hash-verified) or creates it, so admit exactly one batch.
// The store keeps no item index and no spec records — nothing is shared
// across batches, nothing is written next to path, and Batches (so a
// service's Restore) finds nothing.
func OpenFile(path string) *Store {
	return &Store{file: path, items: make(map[string]itemRef), recs: make(map[string]Record)}
}

// Close closes the item index. Open handles keep their journals; close
// them separately.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		return nil
	}
	err := s.idx.Close()
	s.idx = nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Batches lists the spec records of every admitted batch in admission
// order — the restart path: rebuild each with work.Unmarshal and resubmit.
func (s *Store) Batches() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Items is the number of distinct item keys the index holds.
func (s *Store) Items() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Replay reads the journal of the stored batch h pins, verified against
// h, and returns its completed entries sorted by input index — how the
// service streams results of a batch it no longer holds in memory.
func (s *Store) Replay(h journal.Header) ([]journal.Entry, error) {
	return journal.Replay(s.journalPath(BatchID(h.Kind, h.BatchSHA256)), h)
}

// Handle is one admitted batch: its open journal, the lines already
// present at admission (from its own journal and from sibling journals
// via the item index), and the bookkeeping to record new lines.
type Handle struct {
	// ID is the batch's store identity (kind-hash).
	ID string
	// Header pins kind, batch hash, and item count.
	Header journal.Header
	// Done holds the entries already present at admission, sorted by
	// input index. A complete Done (len == Header.N) means zero items
	// remain.
	Done []journal.Entry
	// HitsJournal counts lines found in the batch's own journal;
	// HitsIndex counts lines adopted from other batches' journals through
	// the per-item index. HitsJournal + HitsIndex == len(Done).
	HitsJournal int
	HitsIndex   int

	s     *Store
	jr    *journal.Journal
	keyer work.ItemKeyer // nil: kind has no per-item identity
}

// Admit registers a batch with the store and returns its handle. It
// resumes the batch's own journal when one exists (hash-verified — this
// is also how a copied-in single-process checkpoint is adopted), fills
// remaining gaps from other batches' journals via the per-item index,
// and persists the batch's spec record on first admission so a restart
// re-queues it. Admission of an already-complete batch returns a handle
// whose Done covers every index.
func (s *Store) Admit(b work.Batch) (*Handle, error) {
	hash, err := b.Hash()
	if err != nil {
		return nil, err
	}
	h := &Handle{
		ID:     BatchID(b.Kind(), hash),
		Header: journal.Header{Kind: b.Kind(), BatchSHA256: hash, N: b.Len()},
		s:      s,
	}
	if s.file == "" {
		h.keyer, _ = b.(work.ItemKeyer)
	}

	jr, done, err := journal.Open(s.journalPath(h.ID), h.Header, true)
	if err != nil {
		return nil, fmt.Errorf("store: admitting %s: %w", h.ID, err)
	}
	h.jr, h.Done, h.HitsJournal = jr, done, len(done)

	if err := s.fillFromIndex(h); err != nil {
		jr.Close()
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.recs[h.ID]; !known && s.file == "" {
		// First admission: persist the spec record and index whatever the
		// journal already held (an adopted checkpoint's lines are not in
		// items.idx yet — this pass is what makes them shareable).
		payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
		if err != nil {
			jr.Close()
			return nil, err
		}
		rec := Record{Seq: s.seq + 1, Kind: b.Kind(), BatchSHA256: hash, N: b.Len(), Payload: payload}
		if err := s.writeRecord(rec); err != nil {
			jr.Close()
			return nil, err
		}
		s.seq = rec.Seq
		s.recs[h.ID] = rec
		if h.keyer != nil {
			for _, e := range h.Done {
				if err := s.indexItemLocked(h, e.I); err != nil {
					jr.Close()
					return nil, err
				}
			}
		}
	}
	return h, nil
}

// fillFromIndex adopts lines for h's missing indices from other batches'
// journals: it resolves each missing item key through the index, groups
// the references by source journal, replays each source once against its
// recorded header, and records the adopted lines into h's own journal —
// so per-batch journals stay self-contained and a future resubmit needs
// no cross-reads at all. h.Done stays sorted by input index.
func (s *Store) fillFromIndex(h *Handle) error {
	if h.keyer == nil || len(h.Done) == h.Header.N || len(s.items) == 0 {
		return nil
	}
	type adoption struct {
		i   int // h's item index
		src int // index inside the source journal
	}
	wanted := make(map[string][]adoption) // source batch ID -> items to adopt
	var order []string                    // source IDs in first-reference order
	own := h.Done
	for i := 0; i < h.Header.N; i++ {
		if len(own) > 0 && own[0].I == i {
			own = own[1:]
			continue
		}
		k, err := h.keyer.ItemKey(i)
		if err != nil {
			return err
		}
		s.mu.Lock()
		ref, ok := s.items[k]
		s.mu.Unlock()
		if !ok || ref.batch == h.ID {
			continue
		}
		if len(wanted[ref.batch]) == 0 {
			order = append(order, ref.batch)
		}
		wanted[ref.batch] = append(wanted[ref.batch], adoption{i: i, src: ref.i})
	}
	for _, src := range order {
		s.mu.Lock()
		rec := s.recs[src]
		s.mu.Unlock()
		entries, err := s.Replay(journal.Header{Kind: rec.Kind, BatchSHA256: rec.BatchSHA256, N: rec.N})
		if err != nil {
			// A referenced journal that is gone or unreadable is a cache
			// miss, not a failure: the item re-executes and re-indexes.
			continue
		}
		for _, a := range wanted[src] {
			k, ok := slices.BinarySearchFunc(entries, a.src, func(e journal.Entry, i int) int { return cmp.Compare(e.I, i) })
			if !ok {
				continue
			}
			if err := h.jr.Record(a.i, entries[k].Line); err != nil {
				return err
			}
			h.Done = append(h.Done, journal.Entry{I: a.i, Line: entries[k].Line})
			h.HitsIndex++
		}
	}
	slices.SortFunc(h.Done, func(a, b journal.Entry) int { return cmp.Compare(a.I, b.I) })
	return nil
}

// Record appends item i's result line to the batch's journal and, for
// keyed kinds, registers the line's item key in the shared index (first
// occurrence wins). Call once per index; the service's idempotency check
// sits above this.
func (h *Handle) Record(i int, line []byte) error {
	if err := h.jr.Record(i, line); err != nil {
		return err
	}
	if h.keyer == nil {
		return nil
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.indexItemLocked(h, i)
}

// Sync flushes the batch's journal to stable storage.
func (h *Handle) Sync() error { return h.jr.Sync() }

// Close closes the batch's journal (the shared index belongs to the
// store and stays open).
func (h *Handle) Close() error { return h.jr.Close() }

// indexItemLocked appends an items.idx entry for h's item i unless its
// key is already mapped. Caller holds s.mu.
func (s *Store) indexItemLocked(h *Handle, i int) error {
	k, err := h.keyer.ItemKey(i)
	if err != nil {
		return err
	}
	if _, dup := s.items[k]; dup {
		return nil
	}
	if s.idx == nil {
		return fmt.Errorf("store: %s: recording into a closed store", h.ID)
	}
	data, err := json.Marshal(idxEntry{Key: k, Batch: h.ID, I: i})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.idx.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.items[k] = itemRef{batch: h.ID, i: i}
	return nil
}

// journalPath is the journal file of batch id.
func (s *Store) journalPath(id string) string {
	if s.file != "" {
		return s.file
	}
	return filepath.Join(s.dir, id+".journal")
}

// loadRecords reads every *.batch.json spec record in the directory.
func (s *Store) loadRecords() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.batch.json"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("store: %s: %w", filepath.Base(p), err)
		}
		want := filepath.Base(p)
		if got := rec.ID() + ".batch.json"; got != want {
			return fmt.Errorf("store: %s: record identifies as %s", want, got)
		}
		s.recs[rec.ID()] = rec
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
	}
	return nil
}

// writeRecord persists a spec record atomically (temp file + rename), so
// a crash mid-write never leaves a half-readable record.
func (s *Store) writeRecord(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(s.dir, rec.ID()+".batch.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// loadIndex replays items.idx (first occurrence of a key wins, torn
// final line truncated away) and leaves the file open for appending.
// Entries whose batch has no spec record are skipped: that batch was
// reset (its files deleted), so its keys are free for whichever batch
// next records them. Callers load the records first.
func (s *Store) loadIndex() error {
	path := filepath.Join(s.dir, "items.idx")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	r := bufio.NewReader(f)
	var offset int64
	for {
		line, err := r.ReadBytes('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			f.Close()
			return fmt.Errorf("store: items.idx: %w", err)
		}
		if atEOF {
			// A trailing fragment is the torn final line of a crashed
			// append — drop it, like the journal does.
			break
		}
		var e idxEntry
		if err := json.Unmarshal(line, &e); err != nil {
			f.Close()
			return fmt.Errorf("store: items.idx: corrupt entry at byte %d: %w", offset, err)
		}
		_, dup := s.items[e.Key]
		if _, live := s.recs[e.Batch]; live && !dup {
			s.items[e.Key] = itemRef{batch: e.Batch, i: e.I}
		}
		offset += int64(len(line))
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return fmt.Errorf("store: items.idx: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: items.idx: %w", err)
	}
	s.idx = f
	return nil
}

package journal

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// referenceScan is scan as it was before entries in Record's form took
// the one-pass branch: every entry through json.Unmarshal and
// json.Compact. FuzzReplay holds scan to it — the same error text, or the
// same entries, count, end offset and torn flag.
func referenceScan(f *os.File, want *Header) (scanned, error) {
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
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return scanned{}, fmt.Errorf("journal: corrupt entry at byte %d: %w", at, err)
		}
		if e.I < 0 || e.I >= h.N {
			return scanned{}, fmt.Errorf("journal: entry index %d out of range [0, %d)", e.I, h.N)
		}
		if seen[e.I/64]&(1<<(e.I%64)) != 0 {
			continue // a later duplicate: the first occurrence wins
		}
		seen[e.I/64] |= 1 << (e.I % 64)
		s.done++
		compact := &bytes.Buffer{}
		if err := json.Compact(compact, e.Line); err != nil {
			return scanned{}, fmt.Errorf("journal: corrupt entry line at byte %d: %w", at, err)
		}
		if want != nil {
			s.entries = append(s.entries, Entry{I: e.I, Line: compact.Bytes()})
		}
	}
	slices.SortFunc(s.entries, func(a, b Entry) int { return cmp.Compare(a.I, b.I) })
	return s, nil
}

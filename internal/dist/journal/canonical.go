package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// maxDepth is encoding/json's nesting limit: a value nested deeper is
// not valid JSON to it, so it is not to compactValid either.
const maxDepth = 10000

// Canonical reports whether Record stores line byte for byte and Replay
// reads it back: line is compact valid JSON, nested shallowly enough to
// stay valid inside Record's entry object, and holds none of the bytes
// json.Marshal escapes (a raw '<', '>', '&', U+2028 or U+2029).
func Canonical(line []byte) bool {
	return compactValid(line, 1) && !marshalEscapes(line)
}

// marshalEscapes reports whether b holds a '<', '>' or '&', or the UTF-8
// encoding of U+2028 or U+2029 (E2 80 A8, E2 80 A9): the bytes
// json.Marshal rewrites in a json.RawMessage. A lead byte E2 never
// continues an earlier sequence, so a byte-wise match is a rune-wise one.
func marshalEscapes(b []byte) bool {
	for i, c := range b {
		switch c {
		case '<', '>', '&':
			return true
		case 0xE2:
			if i+2 < len(b) && b[i+1] == 0x80 && (b[i+2] == 0xA8 || b[i+2] == 0xA9) {
				return true
			}
		}
	}
	return false
}

// AppendEntry appends to dst the line Record writes for entry (i, line),
// its '\n' included, and reports whether line is Canonical. The line is
// json.Marshal's entry: for a canonical line that is {"i":N,"line":LINE}
// around line's own bytes, built here in one pass over line; any other
// line goes through json.Marshal, whose error AppendEntry returns, dst
// unchanged, for a line that is not JSON.
func AppendEntry(dst []byte, i int, line []byte) ([]byte, bool, error) {
	if !Canonical(line) {
		data, err := json.Marshal(Entry{I: i, Line: line})
		if err != nil {
			return dst, false, fmt.Errorf("journal: %w", err)
		}
		return append(append(dst, data...), '\n'), false, nil
	}
	dst = append(dst, `{"i":`...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, `,"line":`...)
	dst = append(dst, line...)
	return append(dst, "}\n"...), true, nil
}

// parseEntry reads an entry line, its '\n' included, in the form Record
// writes: {"i":N,"line":V} with N of one to nine digits and no leading
// zero, and V compact valid JSON. The entry's Line is V in place, capped
// so that an append copies. Any other line reports false and is left to
// encoding/json; for a line that reports true, encoding/json would decode
// the same index and compact V to itself.
func parseEntry(line []byte) (Entry, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"i":`))
	if !ok {
		return Entry{}, false
	}
	i, k := 0, 0
	for ; k < len(rest) && k < 10 && '0' <= rest[k] && rest[k] <= '9'; k++ {
		i = i*10 + int(rest[k]-'0')
	}
	if k == 0 || k == 10 || rest[0] == '0' && k > 1 {
		return Entry{}, false
	}
	rest, ok = bytes.CutPrefix(rest[k:], []byte(`,"line":`))
	if !ok {
		return Entry{}, false
	}
	v, ok := bytes.CutSuffix(rest, []byte("}\n"))
	if !ok || !compactValid(v, 1) {
		return Entry{}, false
	}
	return Entry{I: i, Line: v[:len(v):len(v)]}, true
}

// compactValid reports whether b is valid JSON that json.Compact leaves
// unchanged (no whitespace outside strings) when open arrays and objects
// enclose it: at 0, exactly what json.Valid and json.Compact accept
// unchanged; at 1, the same inside Record's entry object.
func compactValid(b []byte, open int) bool { return scanValue(b, 0, open) == len(b) }

// scanValue returns the offset just past the compact JSON value starting
// at b[i], or -1 when none starts there. depth counts the arrays and
// objects already open around it.
func scanValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '{', '[':
		if depth++; depth > maxDepth {
			return -1
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if i++; i < len(b) && b[i] == end {
			return i + 1
		}
		for {
			if c == '{' {
				if i = scanString(b, i); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				i++
			}
			if i = scanValue(b, i, depth); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i++
			case end:
				return i + 1
			default:
				return -1
			}
		}
	case '"':
		return scanString(b, i)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	}
	return ScanNumber(b, i)
}

// scanString returns the offset just past the string starting at b[i],
// or -1: control bytes must be escaped, and escapes must be JSON's.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// scanLiteral returns the offset just past lit at b[i], or -1.
func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// ScanNumber returns the offset just past the JSON number starting at
// b[i], or -1 when none starts there:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. grid.Frontier's
// one-pass line reader checks its numbers with it too.
func ScanNumber(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = digits(b, i)
	}
	return i
}

// digits returns the offset just past the run of digits at b[i], or -1
// when there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// Package yaml implements a YAML subset codec sufficient for Kubernetes
// manifests, Helm values files, and KubeFence policy validators.
//
// The decoder supports block mappings and sequences, flow sequences and
// mappings, single- and double-quoted scalars, literal (|) and folded (>)
// block scalars with chomping indicators, multi-document streams separated
// by "---", and comments. Comments are significant to KubeFence: enum
// domains for values-schema generation are declared as comments above or
// beside a key (e.g. "# standalone or repl"), so DecodeWithComments returns
// a side table mapping dotted key paths to their comment text.
//
// The encoder produces deterministic output (mapping keys sorted
// lexicographically) so generated validators are stable across runs and
// diffable in tests.
//
// Scalars decode to string, bool, int64, float64, or nil. Mappings decode
// to map[string]any and sequences to []any.
package yaml

import (
	"fmt"
	"strconv"
	"strings"
)

// Decode parses a single YAML document. A stream with more than one
// document is an error; use DecodeAll for multi-document streams.
func Decode(data []byte) (any, error) {
	docs, err := DecodeAll(data)
	if err != nil {
		return nil, err
	}
	switch len(docs) {
	case 0:
		return nil, nil
	case 1:
		return docs[0], nil
	default:
		return nil, fmt.Errorf("yaml: %d documents in stream, want 1", len(docs))
	}
}

// DecodeAll parses every document in a YAML stream.
func DecodeAll(data []byte) ([]any, error) {
	docs, _, err := decodeStream(data, false)
	return docs, err
}

// DecodeWithComments parses a single YAML document and returns, alongside
// the value, a map from dotted key path (e.g. "postgresql.arch") to the
// comment text attached to that key. A comment is attached to a key if it
// appears on the line(s) immediately above the key or trails the key on the
// same line. Sequence items do not collect comments.
func DecodeWithComments(data []byte) (any, map[string]string, error) {
	docs, comments, err := decodeStream(data, true)
	if err != nil {
		return nil, nil, err
	}
	switch len(docs) {
	case 0:
		return nil, comments, nil
	case 1:
		return docs[0], comments, nil
	default:
		return nil, nil, fmt.Errorf("yaml: %d documents in stream, want 1", len(docs))
	}
}

// Marshal encodes v as YAML with deterministic key ordering.
func Marshal(v any) ([]byte, error) {
	var b strings.Builder
	if err := encodeNode(&b, v, 0, false); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// MarshalAll encodes several documents separated by "---".
func MarshalAll(docs []any) ([]byte, error) {
	var b strings.Builder
	for i, d := range docs {
		if i > 0 {
			b.WriteString("---\n")
		}
		if err := encodeNode(&b, d, 0, false); err != nil {
			return nil, err
		}
	}
	return []byte(b.String()), nil
}

// Error reports a YAML syntax error with 1-based line information.
type Error struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("yaml: line %d: %s", e.Line, e.Msg)
}

func errAt(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// maxErrorEcho bounds the input bytes an error quotes: a decode error is
// copied into 403 bodies and retained denial records, so its size must
// not be the attacker's to choose (internal/object bounds JSON's alike).
const maxErrorEcho = 64

// echo quotes s as %q does, at most maxErrorEcho bytes of it; the one
// quoting helper of every error that names a piece of the input.
func echo(s string) string {
	if len(s) > maxErrorEcho {
		return strconv.Quote(s[:maxErrorEcho]) + "..."
	}
	return strconv.Quote(s)
}

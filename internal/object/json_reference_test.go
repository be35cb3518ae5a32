package object

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the JSON decoder production used before the byte-level
// one in json.go, moved here verbatim (identifiers prefixed "reference",
// nothing else changed) as the differential oracle: the production
// decoder must accept and reject exactly what this one does and decode
// to reflect.DeepEqual values (FuzzDecodeJSONEquivalence). It drives
// encoding/json.Decoder.Token one token at a time.

// referenceParseJSON decodes a JSON request body into an Object without losing
// integer precision: plain json.Unmarshal coerces every number to
// float64, so an int64 that doesn't fit the float53 mantissa (e.g.
// runAsUser: 9007199254740993) silently becomes its neighbor BEFORE the
// policy ever sees it — two adjacent UIDs validate identically. Numbers
// are decoded with json.Decoder.UseNumber and normalized to the value
// model the rest of KubeFence speaks (int64 when the literal is an
// exact integer, float64 otherwise), matching what the YAML decoder
// produces for manifests.
//
// A number that normalizes to neither (an exponent overflowing float64)
// is a decode error, exactly as it was for plain json.Unmarshal.
func referenceParseJSON(data []byte) (Object, error) {
	v, err := referenceDecodeJSON(data)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("object: request root is %s, want object", jsonRootName(v))
	}
	return Object(m), nil
}

// referenceDecodeJSON decodes an arbitrary JSON document with the same
// precision-preserving number normalization as referenceParseJSON. Unlike
// json.Unmarshal it REJECTS duplicate object keys: last-writer-wins
// decoding would let an early occurrence of a key smuggle a sibling
// value past any validator that only sees the decoded map (and past
// upstream parsers that keep the first occurrence instead), so a
// duplicated key is a decode error — the same stance the YAML decoder
// takes. The streaming raw matcher relies on this: it falls back on
// duplicates, and the decode path it falls back TO must not quietly
// collapse them.
func referenceDecodeJSON(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	v, err := referenceDecodeValue(dec, 0)
	if err != nil {
		return nil, err
	}
	// Mirror json.Unmarshal's strictness: trailing non-space content
	// after the document is an error, not silently ignored.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("object: trailing data after JSON document")
	}
	return v, nil
}

// referenceDecodeValue consumes one value from the token stream, normalizing
// numbers as it goes and rejecting duplicate object keys.
func referenceDecodeValue(dec *json.Decoder, depth int) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("object: unexpected end of JSON document")
		}
		return nil, err
	}
	return referenceDecodeFromToken(dec, tok, depth)
}

func referenceDecodeFromToken(dec *json.Decoder, tok json.Token, depth int) (any, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("object: JSON document exceeds max nesting depth %d", maxDecodeDepth)
	}
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			m := map[string]any{}
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("object: non-string object key %v", keyTok)
				}
				if _, dup := m[key]; dup {
					return nil, fmt.Errorf("object: duplicate key %q in JSON object", key)
				}
				val, err := referenceDecodeValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				m[key] = val
			}
			if _, err := dec.Token(); err != nil { // closing '}'
				return nil, err
			}
			return m, nil
		case '[':
			a := []any{}
			for dec.More() {
				val, err := referenceDecodeValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				a = append(a, val)
			}
			if _, err := dec.Token(); err != nil { // closing ']'
				return nil, err
			}
			return a, nil
		}
		return nil, fmt.Errorf("object: unexpected delimiter %v", t)
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return i, nil
		}
		if f, err := t.Float64(); err == nil {
			return f, nil
		}
		return nil, fmt.Errorf("object: number %q overflows every supported numeric type", string(t))
	default:
		return t, nil // string, bool, or nil
	}
}

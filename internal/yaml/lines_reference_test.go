package yaml

import (
	"strings"
)

// This file is the decoder's line grammar as it was before lines.go
// turned it into offset functions shared with the decode-free walker:
// splitLine, stripTrailingComment and splitKey, moved here verbatim as the
// differential oracle. Only stripTrailingComment's quote rule has changed
// since, together with LexLine's: a backslash inside double quotes
// escapes the next byte, and a quote opens a quoted scalar only where a
// scalar starts. FuzzLineGrammar (fuzz_test.go) holds the production
// functions to them line by line, through these names:
var (
	ReferenceSplitLine = splitLine
	ReferenceSplitKey  = splitKey
	ReadLine           = readLine
	MappingEntry       = mappingEntry
)

// splitLine separates indentation, body, and trailing comment, respecting
// quoted strings.
func splitLine(num int, raw string) srcLine {
	indent := 0
	for indent < len(raw) && raw[indent] == ' ' {
		indent++
	}
	body := raw[indent:]
	if body == "" {
		return srcLine{num: num, indent: indent, blank: true, raw: raw}
	}
	if strings.HasPrefix(body, "#") {
		return srcLine{num: num, indent: indent, blank: true, comment: strings.TrimSpace(strings.TrimPrefix(body, "#")), raw: raw}
	}
	content, comment := stripTrailingComment(body)
	content = strings.TrimRight(content, " \t")
	if content == "" {
		return srcLine{num: num, indent: indent, blank: true, comment: comment, raw: raw}
	}
	return srcLine{num: num, indent: indent, content: content, comment: comment, raw: raw}
}

// stripTrailingComment finds a ' #' that begins a comment outside quotes.
// A quote opens a quoted scalar only where one can start (opensScalar);
// anywhere else it is plain content.
func stripTrailingComment(s string) (content, comment string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case (c == '\'' || c == '"') && opensScalar(s[:i]):
			i = closingQuote(s, i)
		case c == '#':
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i], strings.TrimSpace(s[i+1:])
			}
		}
	}
	return s, ""
}

// opensScalar reports whether a quote after before opens a quoted
// scalar: before is empty, or ends in "-", ":" or "?" and white space,
// or in '[', '{' or ',' and any white space (spaces and tabs).
func opensScalar(before string) bool {
	t := strings.TrimRight(before, " \t")
	if t == "" {
		return true
	}
	switch t[len(t)-1] {
	case '[', '{', ',':
		return true
	case '-', ':', '?':
		return len(t) < len(before)
	}
	return false
}

// closingQuote is the index of the quote that closes the quoted scalar
// s[i] opens, or len(s). Inside double quotes a backslash escapes the
// next byte; inside single quotes a doubled quote is an escaped one.
func closingQuote(s string, i int) int {
	q := s[i]
	for i++; i < len(s); i++ {
		switch {
		case q == '"' && s[i] == '\\':
			i++
		case s[i] != q:
		case q == '\'' && strings.HasPrefix(s[i+1:], "'"):
			i++
		default:
			return i
		}
	}
	return len(s)
}

// splitKey splits "key: rest" respecting quoted keys and flow contexts.
func splitKey(content string, lineNum int) (key, rest string, err error) {
	if content == "" {
		return "", "", errAt(lineNum, "empty mapping entry")
	}
	// Quoted key.
	if content[0] == '"' || content[0] == '\'' {
		q := content[0]
		i := 1
		for i < len(content) {
			if q == '"' && content[i] == '\\' {
				i += 2
				continue
			}
			if content[i] == q {
				if q == '\'' && i+1 < len(content) && content[i+1] == '\'' {
					i += 2
					continue
				}
				break
			}
			i++
		}
		if i >= len(content) {
			return "", "", errAt(lineNum, "unterminated quoted key")
		}
		after := content[i+1:]
		if !strings.HasPrefix(after, ":") {
			return "", "", errAt(lineNum, "expected ':' after quoted key")
		}
		if len(after) > 1 && after[1] != ' ' {
			return "", "", errAt(lineNum, "expected space after ':'")
		}
		k, err := unquoteScalar(content[:i+1], lineNum)
		if err != nil {
			return "", "", err
		}
		ks, ok := k.(string)
		if !ok {
			ks = scalarString(k)
		}
		return ks, strings.TrimSpace(after[1:]), nil
	}
	// Plain key: find first ':' followed by space or EOL, outside flow.
	depth := 0
	for i := 0; i < len(content); i++ {
		switch content[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case '"', '\'':
			// A quote inside a plain key is not a key at all.
			return "", "", errAt(lineNum, "not a mapping entry")
		case ':':
			if depth == 0 && (i+1 == len(content) || content[i+1] == ' ') {
				key = strings.TrimSpace(content[:i])
				if key == "" {
					return "", "", errAt(lineNum, "empty key")
				}
				return key, strings.TrimSpace(content[i+1:]), nil
			}
		}
	}
	return "", "", errAt(lineNum, "not a mapping entry")
}

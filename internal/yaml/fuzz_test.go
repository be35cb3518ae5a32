package yaml_test

// Native Go fuzz target for the YAML codec. The decoder parses
// attacker-controlled request bodies at the enforcement point, so any
// panic here is a proxy denial-of-service. Seeds are drawn from the
// embedded chart filesets (real manifests, values files with comment
// enums) and from crafted attack payloads, then mutated by the fuzzer.
//
// Run continuously with:
//
//	go test -fuzz=FuzzDecode -fuzztime=10s ./internal/yaml
import (
	"strings"
	"testing"

	"repro/internal/charts"
	"repro/internal/yaml"
)

func FuzzDecode(f *testing.F) {
	for _, name := range charts.Names() {
		files, ok := charts.Files(name)
		if !ok {
			f.Fatalf("no fileset for chart %s", name)
		}
		for _, content := range files {
			f.Add([]byte(content))
		}
	}
	// Attack-payload shapes: host flags, privileged securityContext,
	// subPath injection, externalIPs, block scalars, flow collections.
	for _, seed := range []string{
		"kind: Pod\nspec:\n  hostNetwork: true\n  containers:\n    - name: c\n      securityContext:\n        privileged: true\n",
		"kind: Service\nspec:\n  externalIPs:\n    - 203.0.113.7\n",
		"spec:\n  template:\n    spec:\n      volumes:\n        - name: v\n          emptyDir: {}\n      containers:\n        - volumeMounts:\n            - subPath: $(Get-Content /secrets)\n",
		"a: |\n  literal\n  block\nb: >-\n  folded\nc: {flow: [1, 2.5, true, null]}\n",
		"# enum: standalone or repl\narch: standalone\n",
		"---\ndoc: 1\n---\ndoc: 2\n...\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any input must produce a value or an error, never a panic.
		v, err := yaml.Decode(data)
		_, _ = yaml.DecodeAll(data)
		_, _, _ = yaml.DecodeWithComments(data)
		if err != nil || v == nil {
			return
		}
		// Whatever decoded must re-encode, and the encoder's output must
		// itself decode: policy serialization feeds generated validators
		// back through this codec.
		out, err := yaml.Marshal(v)
		if err != nil {
			t.Fatalf("decoded value failed to marshal: %v", err)
		}
		if _, err := yaml.Decode(out); err != nil {
			t.Fatalf("marshal output failed to re-decode: %v\ninput: %q\nmarshaled: %q", err, data, out)
		}
	})
}

// nbsp is U+00A0, one of the white-space runes strings.TrimSpace strips
// and an ASCII-only trim does not.
const nbsp = "\xc2\xa0"

// FuzzLineGrammar holds lines.go to the reference line grammar of
// lines_reference_test.go on every line of the input: readLine gives
// splitLine's indentation, content, comment text and blank flag;
// mappingEntry (SplitEntry plus the key unquote) gives splitKey's
// accept/reject, key and rest, on the line's content and on the raw line
// alike; and the []byte instantiations the raw walker uses give the same
// offsets as the string ones the decoder uses. LexLine, run over the
// whole input as the raw walker runs it, lays out each line as SplitLine
// does on that line alone and ends it at its '\n'.
func FuzzLineGrammar(f *testing.F) {
	for _, name := range charts.Names() {
		files, _ := charts.Files(name)
		for _, content := range files {
			f.Add([]byte(content))
		}
	}
	for _, seed := range []string{
		"kind" + nbsp + ": Pod\nmetadata:\n  namespace: b" + nbsp + "\n",
		"  app" + nbsp + ": rel # c\n- " + nbsp + "x\n-\n- - y: 1\n",
		"a: b" + nbsp + " # c\n\"k\"" + nbsp + ": v\n'a''b': c\n\"a\\\\\": x\n",
		"a: 'x # y' # z\nb: \"q\\\" # r\" #s\nc: d\t# e\n\tk: v\n \t# only\n",
		"x:\xe3\x80\x80y\n\xc2\x85k: v\nk:\x0bv\x0c\nk: \xc2\n{a: 1}: b\n[x]: y\n: v\n",
		// Lines whose last byte is a '#', a quote or a backslash, at the
		// end of the input and before a '\n'.
		"a: b #", "a: b #\nc: d", "a: 'b", "a: 'b\nc: d # e", "a: \"b", "a: \"b\nc: d # e",
		"a: \"b\\", "a: \"b\\\nc: d # e\n", "- \"\\\n- x # y\n", "#\n'\n\"\n\\\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, raw := range strings.Split(string(data), "\n") {
			checkLine(t, i+1, raw)
		}
		checkLexLine(t, string(data))
		checkLexLine(t, data)
	})
}

// checkLexLine lexes data line by line, each line from the end of the
// one before, and holds every layout to SplitLine's on the '\n'-split
// line and every end to that line's '\n'.
func checkLexLine[T string | []byte](t *testing.T, data T) {
	pos := 0
	for i, raw := range strings.Split(string(data), "\n") {
		l, end := yaml.LexLine(data, pos)
		if want := yaml.SplitLine(raw); l != want {
			t.Fatalf("line %d %q: LexLine %+v, SplitLine %+v", i+1, raw, l, want)
		}
		if end != pos+len(raw) {
			t.Fatalf("line %d %q: LexLine ends at %d, its '\\n' is at %d", i+1, raw, end, pos+len(raw))
		}
		pos = end + 1
	}
}

func checkLine(t *testing.T, num int, raw string) {
	want := yaml.ReferenceSplitLine(num, raw)
	if got := yaml.ReadLine(num, raw); got != want {
		t.Fatalf("line %q: readLine %+v, splitLine %+v", raw, got, want)
	}
	l := yaml.SplitLine(raw)
	if lb := yaml.SplitLine([]byte(raw)); l != lb {
		t.Fatalf("line %q: SplitLine on string %+v, on bytes %+v", raw, l, lb)
	}
	for _, c := range []string{raw[l.Start:l.End], raw} {
		wantKey, wantRest, err := yaml.ReferenceSplitKey(c, num)
		key, rest, ok := yaml.MappingEntry(c)
		if ok != (err == nil) || ok && (key != wantKey || rest != wantRest) {
			t.Fatalf("content %q: mappingEntry (%q, %q, %v), splitKey (%q, %q, %v)",
				c, key, rest, ok, wantKey, wantRest, err)
		}
		e, ok := yaml.SplitEntry(c)
		if eb, okb := yaml.SplitEntry([]byte(c)); e != eb || ok != okb {
			t.Fatalf("content %q: SplitEntry on string %+v %v, on bytes %+v %v", c, e, ok, eb, okb)
		}
		i, j := yaml.TrimSpace(c, 0, len(c))
		if ib, jb := yaml.TrimSpace([]byte(c), 0, len(c)); c[i:j] != strings.TrimSpace(c) || ib != i || jb != j {
			t.Fatalf("content %q: TrimSpace spans [%d,%d) / [%d,%d), strings.TrimSpace %q", c, i, j, ib, jb, strings.TrimSpace(c))
		}
		at, item := yaml.SeqItem(c)
		if item != (c == "-" || strings.HasPrefix(c, "- ")) ||
			item && at != len(c)-len(strings.TrimLeft(c[1:], " ")) {
			t.Fatalf("content %q: SeqItem (%d, %v)", c, at, item)
		}
	}
}

package object_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/mutate"
	"repro/internal/object"
)

// chartManifests renders every manifest of the five paper charts as a
// JSON request body.
func chartManifests(tb testing.TB) (bodies [][]byte, objs []object.Object) {
	tb.Helper()
	for _, name := range charts.Names() {
		files, err := charts.MustLoad(name).Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			tb.Fatal(err)
		}
		for _, o := range chart.Objects(files) {
			data, err := json.Marshal(o)
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, data)
			objs = append(objs, o)
		}
	}
	return bodies, objs
}

// nested wraps core in n arrays.
func nested(n int, core string) []byte {
	return []byte(strings.Repeat("[", n) + core + strings.Repeat("]", n))
}

// equivalenceSeeds is the differential corpus: every chart manifest, one
// attack body per mutation class, and the lexical edges where a
// hand-written decoder and encoding/json are most likely to part.
func equivalenceSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds, objs := chartManifests(tb)
	scs, err := mutate.ForCatalog(objs, mutate.Options{MaxPerAttackClass: 1})
	if err != nil {
		tb.Fatal(err)
	}
	seen := map[mutate.Class]bool{}
	for _, sc := range scs {
		if seen[sc.Class] {
			continue
		}
		seen[sc.Class] = true
		data, err := json.Marshal(sc.Object)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	if len(seen) != len(mutate.AllClasses()) {
		tb.Fatalf("seeded %d mutation classes, want %d", len(seen), len(mutate.AllClasses()))
	}
	for _, s := range []string{
		// numbers
		`{"a":-0}`, `{"a":-0.0}`, `{"a":1e400}`, `{"a":-1e400}`, `{"a":1e-400}`, `{"a":1.}`, `{"a":-}`,
		`{"a":01}`, `{"a":-01}`, `{"a":1e}`, `{"a":1e+}`, `{"a":.5}`, `{"a":+1}`, `{"a":0e0}`, `{"a":1E5}`,
		`{"a":1.5e-3}`, `{"a":0x10}`, `{"a":1_000}`, `{"a":NaN}`, `{"a":123x}`,
		`{"a":999999999999999999}`, // 18 digits: the in-place accumulate bound
		`{"a":-999999999999999999}`,
		`{"a":9223372036854775807}`,  // 19 digits, max int64
		`{"a":9223372036854775808}`,  // 19 digits, overflows to float64
		`{"a":-9223372036854775808}`, // min int64
		`{"a":-9223372036854775809}`, // below it: float64
		`{"a":18446744073709551616}`, // 20 digits
		`{"a":9007199254740993}`,     // 2^53+1
		`{"a":[1,2.0,3e0,4.5,-6,7E-1]}`, `{"a":1` + strings.Repeat("0", 400) + `}`,
		// strings
		`{"a":"\ud800"}`, `{"a":"\udc00"}`, `{"a":"\ud83d\ude00"}`, `{"a":"\ud800\u0041"}`, `{"a":"\ud800\ud800"}`,
		`{"a":"\ud83d\ud83d\ude00"}`, `{"a":"\ud800x"}`, `{"a":"\ud800\"}`, `{"a":"\ud800\ud"}`,
		`{"a":"\u00e9\u0000\uFFFF\uabCD"}`, `{"a":"\u12"}`, `{"a":"\u12G4"}`, `{"a":"\x"}`, `{"a":"\'"}`,
		`{"a":"\"\\\/\b\f\n\r\t"}`, `{"a":"é€😀"}`, `{"a":""}`, `{"":""}`,
		"{\"a\":\"x\xffy\"}", "{\"k\xff\":1}", "{\"a\":\"\xc3\"}", "{\"a\":\"\xe2\x82\"}", "{\"a\":\"\xed\xa0\x80\"}",
		"{\"a\":\"\xef\xbf\xbd\"}", "{\"\xff\":1,\"\xfe\":2}", // two invalid bytes both decode to U+FFFD: a duplicate
		"{\"a\":\"x\x01y\"}", "{\"a\":\"tab\there\"}", "{\"a\":\"nl\nhere\"}", "{\"a\":\"del\x7f\"}", "{\"a\x00\":1}",
		`{"a":"unterminated`, `{"a":"esc\`, `{"a`,
		// duplicate keys, on the decoded spelling
		`{"a":1,"a":2}`, `{"a":1,"\u0061":2}`, `{"x":{"a":1,"b":2,"a":3}}`, `{"a":1,"A":2}`, `{"x":[{"k":1,"k":1}]}`,
		// structure
		`{"a":1,}`, `[,]`, `[1,]`, `[,1]`, `{,}`, `{"a":1,,"b":2}`, `{"a"::1}`, `{"a" 1}`, `{"a":1 "b":2}`, `{1:2}`,
		`{"a","b"}`, `[1 2]`, `[1:2]`, `[1}`, `{"a":1]`, `{{}:1}`, `{"a":}`, `{"a"}`, `{`, `[`, `}`, `]`, `,`, `:`,
		`{}`, `[]`, `{"a":{}}`, `{"a":[]}`, `{"a":[[],{}]}`, ` { "a" : [ 1 , 2 ] , "b" : null } `,
		"\t\r\n{\"a\":\ttrue\r\n}\n", "{\"a\":1}\v", "{\"a\":1}\x00", "\xef\xbb\xbf{}", "{\"a\":\f1}",
		// literals and roots
		`{"a":true,"b":false,"c":null}`, `{"a":tru}`, `{"a":truex}`, `{"a":nul}`, `{"a":falsy}`, `{"a":True}`,
		`true`, `null`, `"x"`, `1`, `-`, `[1,2]`, ``, ` `, `nulll`, `1 2`, `"x" "y"`,
		// trailing garbage
		`{"a":1} {"b":2}`, `{"a":1}x`, `{"a":1}}`, `{"a":1},`, `[]]`, `{"a":1} `,
	} {
		seeds = append(seeds, []byte(s))
	}
	// Depth: the root is at depth 0 and every value, scalars included,
	// must sit at depth <= MaxDecodeDepth.
	d := object.MaxDecodeDepth
	seeds = append(seeds,
		nested(d, "1"), nested(d+1, "1"), nested(d+1, ""), nested(d+2, ""),
		[]byte(strings.Repeat(`{"a":`, d)+`1`+strings.Repeat(`}`, d)),
		[]byte(strings.Repeat(`{"a":`, d+1)+`1`+strings.Repeat(`}`, d+1)),
		[]byte(strings.Repeat("[", d+5)))
	return seeds
}

// checkEquivalence holds the production decoder to the retained
// reference on one input: same accept/reject, and reflect.DeepEqual
// values — which compares int64 against float64 typing, nil against
// empty collections, and every decoded string byte for byte.
func checkEquivalence(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := object.ReferenceDecodeJSON(data)
	got, gotErr := object.DecodeJSON(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject diverges on %.200q:\nreference error: %v\ndecoder error:   %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		if len(gotErr.Error()) > object.MaxErrorLen {
			t.Fatalf("decode error is %d bytes, want <= %d: %.300s", len(gotErr.Error()), object.MaxErrorLen, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded values diverge on %.200q:\nreference: %#v\ndecoder:   %#v", data, want, got)
	}
	// ParseJSON adds only the root check.
	o, err := object.ParseJSON(data)
	if m, isObj := want.(map[string]any); isObj != (err == nil) || (isObj && !reflect.DeepEqual(map[string]any(o), m)) {
		t.Fatalf("ParseJSON on %.200q: root is object = %v, err = %v", data, isObj, err)
	}
}

// TestDecodeJSONEquivalenceSeeds runs the fuzz target's seed corpus
// without the fuzzer, so tier-1 covers every lexical edge.
func TestDecodeJSONEquivalenceSeeds(t *testing.T) {
	for _, data := range equivalenceSeeds(t) {
		checkEquivalence(t, data)
	}
}

// TestDecodeJSONEquivalenceOnScenarioMatrix replays every body of the
// un-reduced robustness matrix (each chart's benign manifests and all of
// its attack variants) through both decoders: the violation lists both
// engines pin are computed from these decoded values.
func TestDecodeJSONEquivalenceOnScenarioMatrix(t *testing.T) {
	bodies := 0
	for _, name := range append(charts.Names(), charts.ScenarioNames()...) {
		files, err := charts.MustLoad(name).Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			t.Fatal(err)
		}
		objs := chart.Objects(files)
		scs, err := mutate.ForCatalog(objs, mutate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			objs = append(objs, sc.Object)
		}
		for _, o := range objs {
			data, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, data)
			bodies++
		}
	}
	if bodies < 2045 {
		t.Errorf("matrix shrank: %d bodies, want >= 2045", bodies)
	}
}

func FuzzDecodeJSONEquivalence(f *testing.F) {
	for _, data := range equivalenceSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(checkEquivalence)
}

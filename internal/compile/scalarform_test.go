package compile

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/object"
	"repro/internal/validator"
	"repro/internal/yaml"
)

// TestRawWalkersReadScalarFormsAsTheDecoders enumerates the scalar-form
// slice of the raw-vs-decoded contract:
//
//   - every plain scalar of up to five symbols over 0 1 9 . + - _ e E x
//     i n f, and every word form of internal/yaml's
//     testdata/plain_words.txt (each casing of null, true and false, the
//     inf and nan words, YAML 1.1 booleans, base prefixes, int64-edge
//     digits): where the walker's lexer, yaml.LexScalar, types one, the
//     decoder gives it that type, and a string is the scalar's own bytes;
//   - every double-quoted body of up to six symbols over a é \ n t r " 0
//     u F x — not extended past a prefix the decoder already refuses for
//     good, an unsupported escape or a bad \u — and every single-quoted
//     body of up to six over a ' ": the YAML walker accepts exactly what
//     the decoder accepts and decodes it to the same bytes;
//   - JSON strings with every escape, surrogate pairs, lone surrogates and
//     invalid UTF-8: the same against the JSON decoder.
//
// Each accepted scalar of up to two symbols, a few longer ones of each
// form, and every accepted JSON string, is then the image of a
// Deployment on its wire and, re-encoded, on the other, judged against
// three policies whose image check reads the content — a set of strings,
// the ip type, a pattern: the walk's verdict and list are both engines'
// on the decoded document, and the walk leaves undecided only a float or
// a string too long to render.
func TestRawWalkersReadScalarFormsAsTheDecoders(t *testing.T) {
	var mu sync.Mutex
	var embed []scalarForm
	keep := func(forms []scalarForm) {
		mu.Lock()
		defer mu.Unlock()
		embed = append(embed, forms...)
	}
	double := []string{"a", "é", `\`, "n", "t", "r", `"`, "0", "u", "F", "x"}
	t.Run("forms", func(t *testing.T) {
		t.Run("plain", func(t *testing.T) {
			t.Parallel()
			keep(plainForms(t))
		})
		t.Run("words", func(t *testing.T) {
			t.Parallel()
			keep(wordForms(t))
		})
		for i, first := range [][]string{double[:6], double[6:]} {
			i, first := i, first
			t.Run(fmt.Sprintf("double-quoted-%d", i), func(t *testing.T) {
				t.Parallel()
				keep(quotedForms(t, `"`, double, first, 6))
			})
		}
		t.Run("single-quoted", func(t *testing.T) {
			t.Parallel()
			alphabet := []string{"a", "'", `"`}
			keep(quotedForms(t, `'`, alphabet, alphabet, 6))
			keep(quotedForms(t, `'`, alphabet, []string{""}, 0))
		})
		t.Run("json", func(t *testing.T) {
			t.Parallel()
			keep(jsonForms(t))
		})
	})
	if t.Failed() {
		return
	}
	slices.SortFunc(embed, func(a, b scalarForm) int { return strings.Compare(a.spell, b.spell) })
	judged, undecided := judgeEmbedded(t, embed)
	t.Logf("%d embedded bodies: %d judged, %d undecided", len(embed)*2*3, judged, undecided)
}

// plainForms checks every plain scalar of up to five symbols, decoded a
// chunk at a time, and returns the accepted ones of up
// to two symbols plus a few multi-dot strings.
func plainForms(t *testing.T) (embed []scalarForm) {
	var plain []string
	var grow func(prefix string, left int)
	grow = func(prefix string, left int) {
		for _, sym := range []string{"0", "1", "9", ".", "+", "-", "_", "e", "E", "x", "i", "n", "f"} {
			plain = append(plain, prefix+sym)
			if left > 1 {
				grow(prefix+sym, left-1)
			}
		}
	}
	grow("", 5)
	typed, strs := 0, 0
	for lo := 0; lo < len(plain); lo += 20000 {
		chunk := plain[lo:min(lo+20000, len(plain))]
		// One flow sequence per chunk: no byte of the alphabet is flow
		// syntax, so each item reaches plainScalar as it is.
		doc, err := yaml.Decode([]byte("[" + strings.Join(chunk, ", ") + "]"))
		if err != nil {
			t.Fatal(err)
		}
		items := doc.([]any)
		for i, s := range chunk {
			tok, _, ok := yamlToken([]byte(s))
			if !ok {
				continue
			}
			kind := tok.kind
			v := items[i]
			if want := decodedKind(v); kind != want {
				t.Fatalf("plain %q: yamlToken types it %d, the decoder makes %T %v", s, kind, v, v)
			}
			switch kind {
			case tokString:
				strs++
				if v != s {
					t.Fatalf("plain %q: the decoder makes the string %q", s, v)
				}
			case tokInt:
				if v != parseRawInt([]byte(s)) {
					t.Fatalf("plain %q: the decoder makes %v", s, v)
				}
			}
			typed++
			if len(s) <= 2 {
				embed = append(embed, scalarForm{yaml: true, spell: s})
			}
		}
	}
	for _, s := range []string{"0.0.0.0", "1.2.3", "+1.2.3", "-1.2.3e4", "..", "1..", "1.2.3_4"} {
		if tok, _, ok := yamlToken([]byte(s)); !ok || tok.kind != tokString {
			t.Fatalf("plain %q: yamlToken = %d, %v, want a string", s, tok.kind, ok)
		}
		embed = append(embed, scalarForm{yaml: true, spell: s})
	}
	t.Logf("%d plain scalars: %d typed, %d of them strings", len(plain), typed, strs)
	return embed
}

// wordForms checks every word form the way plainForms checks the
// alphabet's, and returns the ones the walker types. The rest fall back:
// internal/proxy's TestRawFastPathWordFormsMatchClassic serves each
// through the proxy with the fast path on and off.
func wordForms(t *testing.T) (embed []scalarForm) {
	data, err := os.ReadFile("../yaml/testdata/plain_words.txt")
	if err != nil {
		t.Fatal(err)
	}
	var words []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			words = append(words, strings.Fields(line)...)
		}
	}
	doc, err := yaml.Decode([]byte("[" + strings.Join(words, ", ") + "]"))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range words {
		tok, _, ok := yamlToken([]byte(s))
		if !ok {
			continue
		}
		switch v := doc.([]any)[i]; {
		case tok.kind != decodedKind(v):
			t.Fatalf("word %q: yamlToken types it %d, the decoder makes %T %v", s, tok.kind, v, v)
		case tok.kind == tokString && v != s, tok.kind == tokInt && v != parseRawInt([]byte(s)):
			t.Fatalf("word %q: the decoder makes %T %v", s, v, v)
		}
		embed = append(embed, scalarForm{yaml: true, spell: s})
	}
	t.Logf("%d word forms: %d typed", len(words), len(embed))
	return embed
}

// quotedForms checks every body of up to depth symbols over alphabet
// whose first symbol is in first, quoted with q, and returns the accepted
// ones of up to two symbols (and, for the double-quoted half that starts
// with the alphabet's first symbol, a few longer ones). A body the
// walker refuses is decoded as a document of its own, which must fail,
// and is not extended past an unsupported escape or a bad \u, which no
// suffix mends; the accepted ones are decoded as the items of one
// sequence per batch.
func quotedForms(t *testing.T, q string, alphabet, first []string, depth int) (embed []scalarForm) {
	// A batch is a flow sequence while no quote in the body closes it
	// and no backslash escapes its closing quote (the flow reader finds
	// the closing quote from the left, so it frames such a body as the
	// block reader does), else a block sequence, one item a line.
	flowed, blocked := quotedBatch{flow: true}, quotedBatch{}
	scratch := make([]byte, 0, maxUnquoted)
	quoted, accepted := 0, 0
	spell := []byte(q)
	var nest func(left int)
	nest = func(left int) {
		quoted++
		spell = append(spell, q...)
		body := spell[len(q) : len(spell)-len(q)]
		tok, _, ok := yamlToken(spell)
		seg, clean := tok.seg, tok.clean
		if !ok {
			_, err := yaml.Decode(spell)
			if err == nil {
				t.Fatalf("quoted %s: the walker refuses what the decoder accepts", spell)
			}
			if msg := err.Error(); strings.Contains(msg, "unsupported escape") || strings.Contains(msg, "bad \\u") {
				spell = spell[:len(spell)-len(q)]
				return
			}
		} else {
			accepted++
			got, fits := seg, true
			if !clean {
				got, fits = token{kind: tokString, quote: q[0], seg: seg}.unquote(scratch[:0])
			}
			b := &blocked
			if flowFramed(body, q[0]) {
				b = &flowed
			}
			b.add(t, spell, got, fits)
			if len(body) <= 2 {
				embed = append(embed, scalarForm{yaml: true, spell: string(spell)})
			}
		}
		spell = spell[:len(spell)-len(q)]
		for i := 0; left > 0 && i < len(alphabet); i++ {
			at := len(spell)
			spell = append(spell, alphabet[i]...)
			nest(left - 1)
			spell = spell[:at]
		}
	}
	for _, sym := range first {
		spell = append(spell[:len(q)], sym...)
		nest(depth - 1)
	}
	if q == `"` && first[0] == alphabet[0] {
		for _, body := range []string{`\ud800`, `\uD83D\uDE00`, `\u00e9\u4E2D`, `a\x41`, `\u12`,
			strings.Repeat(`\n`, 200), strings.Repeat(`\u00e9`, 130), strings.Repeat("x", 300) + `\n`} {
			spell = append(spell[:len(q)], body...)
			nest(0)
			if _, _, ok := yamlToken([]byte(q + body + q)); ok {
				embed = append(embed, scalarForm{yaml: true, spell: q + body + q})
			}
		}
	}
	flowed.check(t)
	blocked.check(t)
	t.Logf("%d %s-quoted bodies: %d accepted", quoted, q, accepted)
	return embed
}

// flowFramed reports whether a flow sequence frames the quoted body as a
// block line does: no quote in it closes the scalar, and no backslash
// escapes the closing quote (inside double quotes a backslash escapes
// the byte after it).
func flowFramed(body []byte, q byte) bool {
	for i := 0; i < len(body); i++ {
		if q == '"' && body[i] == '\\' {
			if i++; i == len(body) {
				return false
			}
		} else if body[i] == q {
			return false
		}
	}
	return true
}

// quotedBatch is a sequence document of quoted scalars the walker
// accepted, and what it decoded each to.
type quotedBatch struct {
	flow  bool
	doc   []byte
	want  []byte
	items []quotedItem
}

// quotedItem is one item's spelling in doc and the walker's decoding in
// want, as offsets; fits is false when the decoding did not fit.
type quotedItem struct {
	spell, want [2]int
	fits        bool
}

func (b *quotedBatch) add(t *testing.T, spell, got []byte, fits bool) {
	switch {
	case !b.flow:
		b.doc = append(b.doc, "- "...)
	case len(b.items) == 0:
		b.doc = append(b.doc, '[')
	default:
		b.doc = append(b.doc, ", "...)
	}
	it := quotedItem{fits: fits}
	it.spell = [2]int{len(b.doc), len(b.doc) + len(spell)}
	b.doc = append(b.doc, spell...)
	if !b.flow {
		b.doc = append(b.doc, '\n')
	}
	it.want = [2]int{len(b.want), len(b.want) + len(got)}
	b.want = append(b.want, got...)
	if b.items = append(b.items, it); len(b.items) == 4096 {
		b.check(t)
	}
}

// check decodes the batch and holds every item to the walker's decoding.
func (b *quotedBatch) check(t *testing.T) {
	if len(b.items) == 0 {
		return
	}
	if b.flow {
		b.doc = append(b.doc, ']')
	}
	doc, err := yaml.Decode(b.doc)
	if err != nil {
		t.Fatalf("the decoder refuses a quoted scalar the walker accepts: %v", err)
	}
	for i, it := range b.items {
		got := b.want[it.want[0]:it.want[1]]
		if want := doc.([]any)[i].(string); it.fits && want != string(got) {
			t.Fatalf("quoted %s: the walker decodes %q, the decoder %q", b.doc[it.spell[0]:it.spell[1]], got, want)
		}
	}
	b.doc, b.want, b.items = b.doc[:0], b.want[:0], b.items[:0]
}

// jsonForms checks JSON strings with every escape, surrogate pairs, lone
// surrogates and invalid UTF-8 against the JSON decoder, and returns the
// accepted ones.
func jsonForms(t *testing.T) (embed []scalarForm) {
	for _, spell := range []string{
		`"plain"`, `""`, `"é"`, `"\"\\\/\b\f\n\r\t"`, `"\u0041\u00e9\u4e2d"`, `"a\u0000b"`,
		`"\ud83d\ude00"`, `"\ud800"`, `"\udc00"`, `"\ud800x"`, `"\ud800\u0041"`, `"\udc00\ud800"`, `"\ud800\ud800\udc00"`,
		"\"\xff\"", "\"a\xc3\"", "\"\xc0\xaf\"", "\"\xed\xa0\x80\"", "\"\xf0\x9f\x98\x80\"",
		`"\x41"`, `"\u12"`, `"\uZZZZ"`, `"\'"`, "\"a\x01\"", `"a\"`,
		`"` + strings.Repeat(`\n`, 200) + `"`, `"` + strings.Repeat(`\u00e9`, 130) + `"`, `"` + strings.Repeat("\xff", 100) + `"`,
	} {
		data := []byte(spell)
		l := object.LexJSON(data, 0)
		ok := l.Kind == object.JSONString && l.End == len(data)
		want, derr := object.DecodeJSON(data)
		if ok != (derr == nil) {
			t.Fatalf("JSON %q: the walker accepts it: %v, the decoder: %v", spell, ok, derr)
		}
		if !ok {
			continue
		}
		got, fits := data[1:len(data)-1], true
		if !l.Plain {
			got, fits = token{kind: tokString, seg: got}.unquote([]byte{})
		}
		if fits && string(got) != want {
			t.Fatalf("JSON %q: the walker decodes %q, the decoder %q", spell, got, want)
		}
		embed = append(embed, scalarForm{spell: spell})
	}
	return embed
}

// scalarForm is an accepted scalar as written on its wire.
type scalarForm struct {
	yaml  bool
	spell string
}

// decodedKind is the tokKind of a value the decoder made.
func decodedKind(v any) tokKind {
	switch v := v.(type) {
	case nil:
		return tokNull
	case bool:
		if v {
			return tokTrue
		}
		return tokFalse
	case int64:
		return tokInt
	case float64:
		return tokFloat
	}
	return tokString
}

// formDeployment is a Deployment whose one container's image is spell,
// on the wire spell is written for.
func formDeployment(f scalarForm) []byte {
	if f.yaml {
		return []byte("apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: d\nspec:\n  template:\n    spec:\n" +
			"      containers:\n      - name: c\n        image: " + f.spell + "\n")
	}
	return []byte(`{"apiVersion":"apps/v1","kind":"Deployment","metadata":{"name":"d"},` +
		`"spec":{"template":{"spec":{"containers":[{"name":"c","image":` + f.spell + `}]}}}}`)
}

// imagePolicies compiles three policies over formDeployment's shape whose
// image check reads content: the strings images lists, the ip type, and
// an "a"-prefixed pattern.
func imagePolicies(t *testing.T, images []string) (pols []*validator.Validator, progs []*Program) {
	t.Helper()
	withImage := func(image string) object.Object {
		return object.Object{"apiVersion": "apps/v1", "kind": "Deployment", "metadata": map[string]any{"name": "d"},
			"spec": map[string]any{"template": map[string]any{"spec": map[string]any{
				"containers": []any{map[string]any{"name": "c", "image": image}}}}}}
	}
	var set []object.Object
	for _, image := range images {
		set = append(set, withImage(image))
	}
	for _, objs := range [][]object.Object{set, {withImage("ip")}, {withImage("a__KF_STRING__")}} {
		pol, prog := buildProgram(t, objs...)
		pols, progs = append(pols, pol), append(progs, prog)
	}
	return pols, progs
}

// judgeEmbedded embeds each form as formDeployment's image on its wire,
// and its decoded document re-encoded on the other, and holds the walk to
// both engines on each body under imagePolicies (listing every other
// form's decoded string): a decided walk returns their list, and only a
// float or a string longer than the walk's scratch is left undecided.
func judgeEmbedded(t *testing.T, forms []scalarForm) (judged, undecided int) {
	t.Helper()
	type body struct {
		wire rawWire
		data []byte
		doc  object.Object
	}
	var bodies []body
	var images []string
	for i, f := range forms {
		own := rawWire{yaml: f.yaml}
		data := formDeployment(f)
		o, err := own.parse(data)
		if err != nil {
			t.Fatalf("%s %q: an accepted scalar's Deployment does not decode: %v", own, f.spell, err)
		}
		other := rawWire{yaml: !f.yaml}
		odata, err := other.encode(o, false)
		if err != nil {
			t.Fatal(err)
		}
		oo, err := other.parse(odata)
		if err != nil {
			t.Fatalf("%s %q: the re-encoded Deployment does not decode: %v", other, odata, err)
		}
		bodies = append(bodies, body{own, data, o}, body{other, odata, oo})
		if s, ok := imageOf(o).(string); ok && i%2 == 0 {
			images = append(images, s)
		}
	}
	pols, progs := imagePolicies(t, images)
	for _, b := range bodies {
		meta, ok := b.wire.scan(b.data)
		if !ok {
			t.Fatalf("%s %q: the prologue does not scan", b.wire, b.data)
		}
		for i, prog := range progs {
			want := prog.Validate(b.doc)
			if in := pols[i].Validate(b.doc); !reflect.DeepEqual(in, want) {
				t.Fatalf("policy %d: the engines diverge on %q:\ninterpreted: %v\ncompiled:    %v", i, b.data, in, want)
			}
			vs, decided := prog.JudgeRawScanned(meta, b.data, b.wire.yaml)
			if !decided {
				undecided++
				image := imageOf(b.doc)
				if s, long := image.(string); !(long && len(s) > maxUnquoted) && decodedKind(image) != tokFloat {
					t.Fatalf("policy %d: %s %q: the walk leaves the image %#v undecided", i, b.wire, b.data, image)
				}
				continue
			}
			judged++
			if !reflect.DeepEqual(vs, want) {
				t.Fatalf("policy %d: %s %q: the walk's verdict diverges:\nraw:     %v\nengines: %v", i, b.wire, b.data, vs, want)
			}
		}
	}
	return judged, undecided
}

// imageOf is formDeployment's image in a decoded document.
func imageOf(o object.Object) any {
	spec := o["spec"].(map[string]any)["template"].(map[string]any)["spec"].(map[string]any)
	return spec["containers"].([]any)[0].(map[string]any)["image"]
}

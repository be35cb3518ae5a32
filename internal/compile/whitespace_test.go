package compile

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode"

	"repro/internal/object"
)

// TestRawWalkersReadWhiteSpaceAsTheDecoders enumerates the white-space
// slice of the raw-vs-decoded contract. Every rune unicode.IsSpace
// reports (the set strings.TrimSpace cuts from YAML keys and values;
// four of them are JSON white space) goes at each position of a
// field line — before the ':', after ': ', at the end of the value,
// before a trailing comment, after a sequence item's "- " — of five
// fields of the nginx Deployment: kind, metadata.namespace,
// metadata.name, a metadata.labels key and the policy-checked image of
// its first container. Each perturbed line replaces the field's line, or
// repeats it beside the original (a duplicate key once trimmed), on both
// wires. For every body: a scan that succeeds on a body that decodes
// returns the decoded accessors, and a vouch implies that the body
// decodes and both engines allow it.
func TestRawWalkersReadWhiteSpaceAsTheDecoders(t *testing.T) {
	var spaces []rune
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsSpace(r) {
			spaces = append(spaces, r)
		}
	}
	if len(spaces) != 25 {
		t.Fatalf("unicode.IsSpace reports %d runes, the enumeration was sized for 25", len(spaces))
	}
	c, dep := nginxDeployment(t)
	yamlBody, err := dep.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(dep)
	if err != nil {
		t.Fatal(err)
	}
	if !c.program.MatchRawYAML(yamlBody) || !c.program.MatchRaw(jsonBody) {
		t.Fatal("the unperturbed Deployment is not vouched on both wires")
	}
	sites := []struct{ yaml, json string }{
		{"kind: ", `"kind":`},
		{"  namespace: ", `"namespace":`},
		{"  name: ", `"name":`},
		{"    app.kubernetes.io/instance: ", `"app.kubernetes.io/instance":`},
		{"        - image: ", `"image":`},
	}
	bodies, scanned, vouched := 0, 0, 0
	check := func(wire string, body []byte) {
		bodies++
		scan, match, parse := ScanRawMeta, (*Program).MatchRaw, object.ParseJSON
		if wire == "yaml" {
			scan, match, parse = ScanRawYAMLMeta, (*Program).MatchRawYAML, object.ParseManifest
		}
		meta, ok := scan(body)
		o, perr := parse(body)
		if ok {
			scanned++
		}
		if ok && perr == nil {
			got := [4]string{string(meta.Kind), string(meta.APIVersion), string(meta.Namespace), string(meta.Name)}
			if dec := [4]string{o.Kind(), o.APIVersion(), o.Namespace(), o.Name()}; got != dec {
				t.Errorf("%s %q: scan reads %q, the decoder %q", wire, body, got, dec)
			}
		}
		if !match(c.program, body) {
			return
		}
		vouched++
		switch {
		case perr != nil:
			t.Errorf("%s %q: vouched for a body the decoder rejects: %v", wire, body, perr)
		case len(c.program.Validate(o)) != 0 || len(c.policy.Validate(o)) != 0:
			t.Errorf("%s %q: vouched for a body the engines deny", wire, body)
		}
	}
	for _, r := range spaces {
		sp := string(r)
		for _, site := range sites {
			// YAML: the field's line, perturbed in place or repeated.
			text := string(yamlBody)
			at := strings.Index(text, "\n"+site.yaml) + 1
			end := at + strings.IndexByte(text[at:], '\n')
			line := text[at:end]
			key, value, _ := strings.Cut(line, ": ")
			variants := []string{key + sp + ": " + value, key + ": " + sp + value,
				line + sp, line + sp + " # note"}
			for _, v := range variants {
				check("yaml", []byte(text[:at]+v+text[end:]))
				check("yaml", []byte(text[:end+1]+v+text[end:]))
			}
			if dash := strings.Index(line, "- "); dash >= 0 {
				check("yaml", []byte(text[:at]+line[:dash+2]+sp+line[dash+2:]+text[end:]))
			}

			// JSON: the member, perturbed in place or repeated before it.
			text = string(jsonBody)
			at = strings.Index(text, site.json)
			end = at + strings.IndexAny(text[at:], ",}")
			member := text[at:end]
			key, value, _ = strings.Cut(member, ":")
			variants = []string{key + sp + ":" + value, key + ":" + sp + value,
				key + ":" + value[:len(value)-1] + sp + value[len(value)-1:], member + sp}
			for _, v := range variants {
				check("json", []byte(text[:at]+v+text[end:]))
				check("json", []byte(text[:at]+v+","+text[at:]))
			}
			if strings.HasSuffix(text[:at], "[{") {
				check("json", []byte(text[:at-1]+sp+text[at-1:]))
			}
		}
	}
	if want := len(spaces) * (len(sites)*16 + 2); bodies != want {
		t.Errorf("enumerated %d bodies, want %d", bodies, want)
	}
	t.Logf("%d bodies: %d scanned, %d vouched", bodies, scanned, vouched)
}

// nbsp is U+00A0, white space the YAML decoder trims off keys and
// values.
const nbsp = "\xc2\xa0"

// nginxDeployment is the nginx chart's corpus entry and its Deployment.
func nginxDeployment(tb testing.TB) (corpus, object.Object) {
	tb.Helper()
	cs, err := loadCorpus()
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range cs {
		for _, o := range c.benign {
			if c.name == "nginx" && o.Kind() == "Deployment" {
				return c, o
			}
		}
	}
	tb.Fatal("corpus has no nginx Deployment")
	return corpus{}, nil
}

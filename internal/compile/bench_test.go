package compile

import (
	"encoding/json"
	"testing"

	"repro/internal/mutate"
	"repro/internal/object"
)

// rawBench is one body on one wire with its chart's program and its
// (successful) routing scan.
type rawBench struct {
	prog *Program
	body []byte
	meta RawMeta
}

func rawBenchScan(wire string, body []byte) (RawMeta, bool) {
	if wire == "yaml" {
		return ScanRawYAMLMeta(body)
	}
	return ScanRawMeta(body)
}

// rawBenchBodies is every benign body of loadCorpus() the scan vouches
// for, encoded on one wire.
func rawBenchBodies(b *testing.B, wire string) []rawBench {
	cs, err := loadCorpus()
	if err != nil {
		b.Fatal(err)
	}
	var out []rawBench
	for _, c := range cs {
		for _, o := range c.benign {
			body, err := json.Marshal(o)
			if wire == "yaml" {
				body, err = o.MarshalYAML()
			}
			if err != nil {
				b.Fatal(err)
			}
			if meta, ok := rawBenchScan(wire, body); ok {
				out = append(out, rawBench{c.program, body, meta})
			}
		}
	}
	return out
}

// BenchmarkRawScan is one routing-metadata scan per op (0 allocs
// expected): the 10-second read of the layer the bench/ harness
// reports as compile.scan_{json,yaml}_ns.
func BenchmarkRawScan(b *testing.B) {
	for _, wire := range []string{"json", "yaml"} {
		bodies := rawBenchBodies(b, wire)
		b.Run(wire, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := rawBenchScan(wire, bodies[i%len(bodies)].body); !ok {
					b.Fatal("scan verdict changed between runs")
				}
			}
		})
	}
}

// BenchmarkRawMatch is one scanned match per op (0 allocs expected),
// compile.match_{json,yaml}_ns in the harness. Bodies the match does
// not vouch for stay in: they are part of the cold-path mix.
func BenchmarkRawMatch(b *testing.B) {
	for _, wire := range []string{"json", "yaml"} {
		bodies := rawBenchBodies(b, wire)
		match := (*Program).MatchRawScanned
		if wire == "yaml" {
			match = (*Program).MatchRawYAMLScanned
		}
		b.Run(wire, func(b *testing.B) {
			b.ReportAllocs()
			vouched := 0
			for i := 0; i < b.N; i++ {
				rb := &bodies[i%len(bodies)]
				if match(rb.prog, rb.meta, rb.body) {
					vouched++
				}
			}
			if vouched == 0 {
				b.Fatal("no body was vouched for")
			}
		})
	}
}

// rawDenialBodies is every attack scenario of the robustness matrix,
// encoded on one wire, that the walk diagnoses.
func rawDenialBodies(b *testing.B, wire rawWire) []rawBench {
	cs, err := loadCorpus()
	if err != nil {
		b.Fatal(err)
	}
	var out []rawBench
	for _, c := range cs {
		scs, err := mutate.ForCatalog(c.benign, mutate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range scs {
			body, err := wire.encode(sc.Object, false)
			if err != nil {
				b.Fatal(err)
			}
			meta, ok := wire.scan(body)
			if !ok {
				continue
			}
			if vs, decided := c.program.JudgeRawScanned(meta, body, wire.yaml); decided && len(vs) > 0 {
				out = append(out, rawBench{c.program, body, meta})
			}
		}
	}
	return out
}

// BenchmarkRawJudge is one judging walk of a denial per op, its
// violation list included: the raw path's answer to an attack, over the
// robustness matrix's scenarios the walk diagnoses.
func BenchmarkRawJudge(b *testing.B) {
	for _, wire := range []rawWire{jsonWire, yamlWire} {
		bodies := rawDenialBodies(b, wire)
		b.Run(wire.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rb := &bodies[i%len(bodies)]
				if vs, _ := rb.prog.JudgeRawScanned(rb.meta, rb.body, wire.yaml); len(vs) == 0 {
					b.Fatal("a denial was not diagnosed")
				}
			}
		})
	}
}

// validateBench is one decoded object with its chart's program.
type validateBench struct {
	prog *Program
	obj  object.Object
}

// validateBodies is every benign object of loadCorpus() (deny false), or
// every attack scenario of the robustness matrix the program denies
// (deny true).
func validateBodies(b *testing.B, deny bool) []validateBench {
	cs, err := loadCorpus()
	if err != nil {
		b.Fatal(err)
	}
	var out []validateBench
	for _, c := range cs {
		if !deny {
			for _, o := range c.benign {
				out = append(out, validateBench{c.program, o})
			}
			continue
		}
		scs, err := mutate.ForCatalog(c.benign, mutate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range scs {
			if len(c.program.Validate(sc.Object)) > 0 {
				out = append(out, validateBench{c.program, sc.Object})
			}
		}
	}
	return out
}

// BenchmarkValidate is one Program.Validate of a decoded object per op,
// compile.exec_ns in the harness: allow over the benign corpus (0 allocs
// expected), deny over the robustness matrix's denials, violation list
// included.
func BenchmarkValidate(b *testing.B) {
	for _, deny := range []bool{false, true} {
		objs := validateBodies(b, deny)
		name := "allow"
		if deny {
			name = "deny"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vb := &objs[i%len(objs)]
				if vs := vb.prog.Validate(vb.obj); (len(vs) > 0) != deny {
					b.Fatal("verdict changed between runs")
				}
			}
		})
	}
}

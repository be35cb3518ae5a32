package compile

import (
	"encoding/json"
	"testing"
)

// rawBench is one benign body on one wire with its chart's program and
// its (successful) routing scan.
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

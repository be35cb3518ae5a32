package yaml_test

import (
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/yaml"
)

// BenchmarkLexLine lays out every line of every chart manifest on the
// YAML wire, as the raw walker reads a body: LexLine from each line's
// start to its '\n', on bytes (run by `make bench`; 0 allocs).
func BenchmarkLexLine(b *testing.B) {
	var bodies [][]byte
	total := 0
	for _, name := range charts.Names() {
		files, err := charts.MustLoad(name).Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range chart.Objects(files) {
			body, err := o.MarshalYAML()
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
			total += len(body)
		}
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			for pos := 0; pos < len(body); {
				_, end := yaml.LexLine(body, pos)
				pos = end + 1
			}
		}
	}
}

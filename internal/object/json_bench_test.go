package object_test

import (
	"testing"

	"repro/internal/object"
)

// BenchmarkParseJSON decodes every manifest of the five paper charts:
// the decode fallback's unit cost (run by `make bench`).
func BenchmarkParseJSON(b *testing.B) {
	bodies, _ := chartManifests(b)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, err := object.ParseJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParseManifest is BenchmarkParseJSON on the YAML wire: every
// chart manifest through object.ParseManifest.
func BenchmarkParseManifest(b *testing.B) {
	_, objs := chartManifests(b)
	var bodies [][]byte
	total := 0
	for _, o := range objs {
		body, err := o.MarshalYAML()
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
		total += len(body)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, err := object.ParseManifest(body); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMarshalYAML is the encoder's side of BenchmarkParseManifest:
// every chart manifest through Object.MarshalYAML, the output that
// ParseManifest reads.
func BenchmarkMarshalYAML(b *testing.B) {
	_, objs := chartManifests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range objs {
			if _, err := o.MarshalYAML(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fixedManifest is a 0.9 KB Deployment as a client sends it.
const fixedManifest = `{"apiVersion":"apps/v1","kind":"Deployment","metadata":{"name":"rel-nginx","namespace":"nginx",` +
	`"labels":{"app.kubernetes.io/name":"nginx","app.kubernetes.io/instance":"rel","app.kubernetes.io/managed-by":"Helm"}},` +
	`"spec":{"replicas":2,"selector":{"matchLabels":{"app.kubernetes.io/name":"nginx","app.kubernetes.io/instance":"rel"}},` +
	`"template":{"metadata":{"labels":{"app.kubernetes.io/name":"nginx","app.kubernetes.io/instance":"rel"}},` +
	`"spec":{"securityContext":{"runAsNonRoot":true,"runAsUser":1001,"fsGroup":1001},"containers":[{"name":"nginx",` +
	`"image":"docker.io/bitnami/nginx:1.25.3","imagePullPolicy":"IfNotPresent","ports":[{"name":"http","containerPort":8080,` +
	`"protocol":"TCP"}],"resources":{"limits":{"cpu":"500m","memory":"256Mi"},"requests":{"cpu":0.25,"memory":"128Mi"}},` +
	`"livenessProbe":{"httpGet":{"path":"/","port":"http"},"initialDelaySeconds":30,"timeoutSeconds":5}}]}}}}`

// TestParseJSONAllocCeiling keeps the allocation gain from eroding: the
// Token-driven decoder spent 650 allocations on this manifest, this one
// two per string value, one per key, and the maps and slices themselves.
func TestParseJSONAllocCeiling(t *testing.T) {
	body := []byte(fixedManifest)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := object.ParseJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 150
	if allocs > ceiling {
		t.Errorf("ParseJSON allocates %.0f times for a %d-byte manifest, ceiling %d", allocs, len(body), ceiling)
	}
	t.Logf("%d-byte manifest: %.0f allocations", len(body), allocs)
}

package object

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// inspectionCap is the largest body the proxy hands the decoder
// (proxy.maxInspectBytes).
const inspectionCap = 4 << 20

// maxDecodeNsPerByte is the ceiling every hostile body below must decode
// or fail under. The worst of them costs this decoder 60 ns/B on a quiet
// core (the Token-driven reference needs 220 ns/B); the ceiling leaves
// room for -race and a loaded CI box while still failing on anything
// superlinear, which at 4 MiB overshoots it by orders of magnitude.
const maxDecodeNsPerByte = 1500

// hostileBodies are bodies at the inspection cap shaped to hit each
// per-element cost of the decoder as often as 4 MiB allows.
func hostileBodies() map[string][]byte {
	var keys bytes.Buffer
	keys.WriteByte('{')
	for i := 0; keys.Len() < inspectionCap-16; i++ {
		if i > 0 {
			keys.WriteByte(',')
		}
		fmt.Fprintf(&keys, `"k%06d":1`, i)
	}
	keys.WriteByte('}')
	const deep = 9000
	return map[string][]byte{
		"350k distinct keys":     keys.Bytes(),
		"1M one-element arrays":  []byte("[" + strings.Repeat("[1],", inspectionCap/4-1) + "[1]]"),
		"one 4 MiB string":       []byte(`{"a":"` + strings.Repeat("x", inspectionCap-8) + `"}`),
		"one all-escape string":  []byte(`{"a":"` + strings.Repeat(`\u00e9`, (inspectionCap-8)/6) + `"}`),
		"one all-invalid string": []byte(`{"a":"` + strings.Repeat("\xff", inspectionCap-8) + `"}`),
		"4 MiB of [":             bytes.Repeat([]byte{'['}, inspectionCap),
		"objects 9000 deep":      []byte(strings.Repeat(`{"a":`, deep) + `1` + strings.Repeat(`}`, deep)),
		"1 MiB digits":           []byte(`{"a":1` + strings.Repeat("0", 1<<20) + `}`),
	}
}

// TestDecodeJSONBoundedCost: the decode fallback is attacker-reachable
// with any body the inspection cap admits, so each hostile shape must
// decode or fail closed in time linear in its size — no panic, no stack
// exhaustion, no quadratic step — and agree with the reference.
func TestDecodeJSONBoundedCost(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes ~30 MiB of hostile bodies")
	}
	for name, body := range hostileBodies() {
		start := time.Now()
		v, err := DecodeJSON(body)
		el := time.Since(start)
		// Nesting depth, not size, is what the deep bodies spend.
		size := len(body)
		if size < 64<<10 {
			size = 64 << 10
		}
		if perByte := float64(el.Nanoseconds()) / float64(size); perByte > maxDecodeNsPerByte {
			t.Errorf("%s: %v for %d bytes = %.0f ns/B, ceiling %d", name, el, len(body), perByte, maxDecodeNsPerByte)
		}
		_, refErr := referenceDecodeJSON(body)
		if (err == nil) != (refErr == nil) {
			t.Errorf("%s: decoder error %v, reference error %v", name, err, refErr)
		}
		if err != nil && (v != nil || len(err.Error()) > MaxErrorLen) {
			t.Errorf("%s: failed open or unbounded: value %T, error of %d bytes", name, v, len(err.Error()))
		}
		t.Logf("%-24s %8d B  %10v  %5.1f ns/B  err=%v", name, len(body), el, float64(el.Nanoseconds())/float64(len(body)), err != nil)
	}
}

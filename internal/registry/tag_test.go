package registry

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBodyTagTellsZeroPaddingApart: GHASH pads a body's last block with
// zeros, so bodies that differ only by trailing zero bytes hash the same
// blocks; the length block alone tells them apart.
func TestBodyTagTellsZeroPaddingApart(t *testing.T) {
	b := []byte(`{"kind":"Pod"}`)
	fifteen := bytes.Repeat([]byte{'a'}, 15)
	pairs := []struct {
		name string
		x, y []byte
	}{
		{"b vs b+0x00", b, append(b[:len(b):len(b)], 0)},
		{"empty vs 16 zero bytes", nil, make([]byte, 16)},
		{"15 vs 16 bytes", fifteen, append(fifteen[:15:15], 0)},
		{"15 vs 16 zero bytes", make([]byte, 15), make([]byte, 16)},
	}
	for _, p := range pairs {
		if BodyTag(p.x) == BodyTag(p.y) {
			t.Errorf("%s: the two bodies share a tag", p.name)
		}
	}
}

// TestBodyTagIsDeterministicPerKey: one body has one tag within a
// process, and another key gives it another.
func TestBodyTagIsDeterministicPerKey(t *testing.T) {
	body := []byte(`{"apiVersion":"v1","kind":"ConfigMap"}`)
	if BodyTag(body) != BodyTag(bytes.Clone(body)) {
		t.Fatal("one body got two tags")
	}
	other := freshGMAC(t)
	if gmacTag(other, body) != gmacTag(other, body) {
		t.Fatal("one body got two tags under the second key")
	}
	if gmacTag(other, body) == BodyTag(body) {
		t.Fatal("two keys gave one body the same tag")
	}
}

// TestBodyTagCollidesUnderAKnownKey pins that the key is the only thing
// keeping tags apart. Under a known key K, with H = E_K(0¹²⁸), GHASH over
// two full blocks and the length block L is A1·H³ + A2·H² + L·H; adding
// the field's 1 to A1 and H to A2 adds H³ + H·H², which is zero. The
// crafted pair collides under K and not under a fresh random key.
func TestBodyTagCollidesUnderAKnownKey(t *testing.T) {
	key := []byte("a key made known")
	known, err := newGMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var h [16]byte
	block.Encrypt(h[:], h[:])

	a := []byte(`{"kind":"Secret","metadata":{ }}`)
	if len(a) != 32 {
		t.Fatalf("the body is %d bytes, want two full blocks", len(a))
	}
	b := bytes.Clone(a)
	b[0] ^= 0x80 // the field's 1: GCM reads a block's bits most significant first
	for i := range h {
		b[16+i] ^= h[i]
	}
	if bytes.Equal(a, b) {
		t.Fatal("the crafted body equals the original")
	}
	if gmacTag(known, a) != gmacTag(known, b) {
		t.Fatal("the crafted pair does not collide under the key it was crafted for")
	}
	if fresh := freshGMAC(t); gmacTag(fresh, a) == gmacTag(fresh, b) {
		t.Fatal("the crafted pair collides under a fresh random key")
	}
	if BodyTag(a) == BodyTag(b) {
		t.Fatal("the crafted pair collides under the process key")
	}
}

// TestBodyTagFailsAtStartUpWithoutFixedNonceGCM: where AES-GCM refuses
// a fixed nonce (FIPS 140-only mode), the process panics while the
// package initialises, with the GCM error, before serving anything. The
// test binary is re-run in that mode.
func TestBodyTagFailsAtStartUpWithoutFixedNonceGCM(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the test binary started in FIPS 140-only mode:\n%s", out)
	}
	if !strings.Contains(string(out), "panic: registry: the body tag needs AES-GCM with a fixed nonce") ||
		!strings.Contains(string(out), "use of GCM with arbitrary IVs is not allowed") {
		t.Fatalf("the test binary failed otherwise in FIPS 140-only mode: %v\n%s", err, out)
	}
}

func freshGMAC(t *testing.T) cipher.AEAD {
	t.Helper()
	key := make([]byte, 16)
	rand.Read(key)
	gmac, err := newGMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	return gmac
}

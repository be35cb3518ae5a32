package registry

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"
)

// Tag is a request body's identity inside one process: the key of the
// proxy's scan memo and of every decision-cache shard. Two bodies with
// equal tags are treated as the same body, so a collision would answer
// one body with the other's scan and verdict.
//
// A tag is AES-GMAC over the body: AES-GCM sealing nothing, with the body
// as additional data, under a 128-bit key K drawn from crypto/rand once
// per process and a fixed zero nonce. That is GHASH under H = E_K(0¹²⁸),
// masked by the constant E_K(nonce‖1). GHASH is a polynomial in H whose
// coefficients are the body's 16-byte blocks and a final block holding
// its bit length, so two distinct bodies of at most ℓ blocks collide
// only at the roots of their difference, a non-zero polynomial of degree
// at most ℓ+1: for a secret H, chosen bodies collide with probability at
// most (ℓ+1)/2¹²⁸. The length block is what tells apart bodies that
// differ only by trailing zero bytes, which the block padding hides.
//
// The bound holds only while H is secret. Anyone who knows it can craft
// a colliding pair for any body (TestBodyTagCollidesUnderAKnownKey), and
// two tags with their bodies give H away: their XOR cancels the mask and
// leaves a polynomial in H whose few roots are cheap to find. So a tag
// never leaves the process: no log, trace, record, /varz or /metrics
// figure prints one, and no handoff ships one off the host. A client
// learns at most whether its own request hit, one candidate per request.
//
// The key is process-wide, like the scan memo, so every proxy and plane
// replica in the process keys alike and an in-process cache handoff
// (ExportCache / ImportCache) moves decisions between them as is. Tags
// from two processes are unrelated.
type Tag [16]byte

// BodyTag is body's tag under the process key. It does not allocate.
func BodyTag(body []byte) Tag {
	return gmacTag(processGMAC, body)
}

// processGMAC holds the process key. A build whose AES-GCM refuses a
// fixed nonce (GODEBUG=fips140=only) panics here, at start-up, rather
// than on the first request.
var processGMAC = func() cipher.AEAD {
	var key [16]byte
	rand.Read(key[:])
	gmac, err := newGMAC(key[:])
	if err != nil {
		panic(fmt.Sprintf("registry: the body tag needs AES-GCM with a fixed nonce: %v", err))
	}
	return gmac
}()

func newGMAC(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// zeroNonce is the fixed GCM nonce. A MAC with no message to encrypt
// never reuses a keystream, so a fixed nonce costs no secrecy.
var zeroNonce [12]byte

// tagScratch holds *Tag: Seal's dst escapes through the interface call,
// so sealing into a local or into the caller's tag would allocate per
// body.
var tagScratch = sync.Pool{New: func() any { return new(Tag) }}

// gmacTag is body's tag under gmac's key.
func gmacTag(gmac cipher.AEAD, body []byte) Tag {
	out := tagScratch.Get().(*Tag)
	var tag Tag
	copy(tag[:], gmac.Seal(out[:0], zeroNonce[:], nil, body))
	tagScratch.Put(out)
	return tag
}

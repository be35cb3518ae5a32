package proxy

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"

	"repro/internal/compile"
)

// scanMemo memoises the routing-metadata scan, keyed by (body SHA-256,
// wire format). The scan is a pure function of the bytes, so an entry is
// never wrong: the memo needs no generation, no invalidation and no
// hand-off between replicas — which is why it is one process-wide table
// and not part of the per-workload decision-cache shards, whose entries
// die with a policy. Operators re-apply identical manifests every
// reconcile, so in the steady state the front end hashes a body and is
// done: the full validating walk of ScanRawMeta / ScanRawYAMLMeta runs
// once per distinct body.
//
// Bodies live in pooled buffers, so an entry holds no bytes: the four
// RawMeta fields are stored as offsets and rebuilt as slices of whichever
// buffer holds the equal bytes now. Failed scans are entries too — a
// body the scanners cannot vouch for is re-applied as often as one they
// can.
//
// The table is fixed-size and set-associative (a direct-mapped table of
// 4096 slots loses ~15 % of a 643-body corpus to index collisions) and
// is read without locks: every slot is a seqlock over atomic words, so a
// hit writes nothing shared. A writer that finds its victim slot owned
// by another writer drops its entry; the next request re-scans.
type scanMemo struct {
	sets []memoSet
	mask uint64 // len(sets)-1; len(sets) is a power of two
}

// The process-wide memo is 2048 sets of 4 ways: 8192 entries of 72
// bytes, 576 KiB, fixed. A set overflows only when five live bodies
// share it — 0.04 sets expected for a 643-body working set.
const (
	memoSets = 2048
	memoWays = 4
)

type memoSet [memoWays]memoSlot

// memoSlot is one entry. seq is the slot's seqlock: odd while a writer
// owns the slot, and a reader whose two loads of it differ discards what
// it read in between. Every other word is atomic so the race detector
// sees what the protocol guarantees.
type memoSlot struct {
	seq  atomic.Uint32
	tag  atomic.Uint32 // memoValid | memoYAML | memoScanned
	key  [4]atomic.Uint64
	span [4]atomic.Uint64 // kind, apiVersion, namespace, name
}

const (
	memoValid   uint32 = 1 << iota // the slot holds an entry
	memoYAML                       // the entry is the YAML scan of the bytes
	memoScanned                    // the scan succeeded
)

// nilSpan encodes a nil field; any other span is start<<32 | end. The
// scanners tell nil (absent or non-string) from empty, so the memo does.
const nilSpan = ^uint64(0)

// memoKey is a body hash as the four words the slots compare.
type memoKey [4]uint64

func newScanMemo(sets int) *scanMemo {
	return &scanMemo{sets: make([]memoSet, sets), mask: uint64(sets - 1)}
}

// processScanMemo is the memo every Request built by ReadRequest uses.
var processScanMemo = newScanMemo(memoSets)

func newMemoKey(sum *[sha256.Size]byte) memoKey {
	return memoKey{
		binary.LittleEndian.Uint64(sum[0:]), binary.LittleEndian.Uint64(sum[8:]),
		binary.LittleEndian.Uint64(sum[16:]), binary.LittleEndian.Uint64(sum[24:]),
	}
}

func memoTag(format bodyFormatKind) uint32 {
	if format == formatYAML {
		return memoValid | memoYAML
	}
	return memoValid
}

// get returns the memoised scan of body, whose hash is k, with the
// fields as slices of body. hit is false when the memo holds no entry.
func (m *scanMemo) get(k *memoKey, format bodyFormatKind, body []byte) (meta compile.RawMeta, scanned, hit bool) {
	set := &m.sets[k[0]&m.mask]
	want := memoTag(format)
	for i := range set {
		s := &set[i]
		seq := s.seq.Load()
		tag := s.tag.Load()
		if seq&1 != 0 || tag&^memoScanned != want ||
			s.key[0].Load() != k[0] || s.key[1].Load() != k[1] ||
			s.key[2].Load() != k[2] || s.key[3].Load() != k[3] {
			continue
		}
		spans := [4]uint64{s.span[0].Load(), s.span[1].Load(), s.span[2].Load(), s.span[3].Load()}
		if s.seq.Load() != seq {
			continue // a writer took the slot while it was read
		}
		return compile.RawMeta{
			Kind:       spanSlice(body, spans[0]),
			APIVersion: spanSlice(body, spans[1]),
			Namespace:  spanSlice(body, spans[2]),
			Name:       spanSlice(body, spans[3]),
		}, tag&memoScanned != 0, true
	}
	return compile.RawMeta{}, false, false
}

// put records the scan of body. It reports whether a live entry was
// replaced. An empty way is taken first; a full set gives up the way the
// key's own bits name, so put keeps no replacement state.
func (m *scanMemo) put(k *memoKey, format bodyFormatKind, body []byte, meta compile.RawMeta, scanned bool) (evicted bool) {
	var spans [4]uint64
	for i, field := range [4][]byte{meta.Kind, meta.APIVersion, meta.Namespace, meta.Name} {
		var ok bool
		if spans[i], ok = fieldSpan(body, field); !ok {
			return false // not a slice of body: nothing an offset can name
		}
	}
	set := &m.sets[k[0]&m.mask]
	s := &set[(k[0]>>32)%memoWays]
	for i := range set {
		if set[i].tag.Load()&memoValid == 0 {
			s = &set[i]
			break
		}
	}
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return false
	}
	evicted = s.tag.Load()&memoValid != 0
	tag := memoTag(format)
	if scanned {
		tag |= memoScanned
	}
	s.tag.Store(tag)
	for i := range k {
		s.key[i].Store(k[i])
		s.span[i].Store(spans[i])
	}
	s.seq.Store(seq + 2)
	return evicted
}

// fieldSpan encodes a RawMeta field as its offsets in body. The scanners
// return two-index sub-slices of the body they were given, so a field's
// start is the difference of the capacities; the first-byte comparison
// holds the scanners to that.
func fieldSpan(body, field []byte) (uint64, bool) {
	if field == nil {
		return nilSpan, true
	}
	start := cap(body) - cap(field)
	end := start + len(field)
	if start < 0 || end > len(body) || (len(field) > 0 && &field[0] != &body[start]) {
		return 0, false
	}
	return uint64(start)<<32 | uint64(end), true
}

func spanSlice(body []byte, span uint64) []byte {
	if span == nilSpan {
		return nil
	}
	return body[span>>32 : uint32(span)]
}

// Package bloom implements the Bloom filters S-Ariadne directories use to
// summarize their content (Section 4 of the paper): for every cached
// capability C, the set of ontology URIs O(C) used by its description is
// hashed with k independent hash functions into an m-bit vector. A remote
// directory receives the vector and forwards a request only when all k
// positions for the request's ontology set are set — so a directory that
// may hold a match is never skipped (no false negatives), and false
// positives are bounded by the usual (1 - e^(-kn/m))^k estimate.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBadShape is returned for invalid (m, k) parameters.
var ErrBadShape = errors.New("bloom: bits and hashes must be positive")

// Filter is an m-bit Bloom filter with k hash functions. The zero value is
// not usable; construct with New or Optimal. Filter is not safe for
// concurrent mutation.
type Filter struct {
	bits      []uint64
	m         uint32
	k         uint32
	additions int
}

// New returns a filter with m bits and k hash functions.
func New(m, k int) (*Filter, error) {
	if m <= 0 || k <= 0 {
		return nil, fmt.Errorf("%w: m=%d k=%d", ErrBadShape, m, k)
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: uint32(m), k: uint32(k)}, nil
}

// Optimal returns a filter sized for n expected entries at the target
// false-positive rate p: m = -n·ln(p)/ln(2)², k = (m/n)·ln(2).
func Optimal(n int, p float64) (*Filter, error) {
	if n <= 0 || p <= 0 || p >= 1 {
		return nil, fmt.Errorf("%w: n=%d p=%v", ErrBadShape, n, p)
	}
	m := int(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

// MustNew is New that panics on error; for static configuration.
func MustNew(m, k int) *Filter {
	f, err := New(m, k)
	if err != nil {
		panic(err)
	}
	return f
}

// hashPair returns the two Kirsch–Mitzenmacher base hashes for a key:
// the low and high halves of its FNV-1a digest. The digest is computed
// inline over the string — hash/fnv would box a hash.Hash64 and copy
// the key to []byte on every probe, and remote-summary probes run on
// the forwarding hot path.
//
//sdp:hotpath
func hashPair(key string) (uint32, uint32) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	sum := uint64(offset64)
	for i := 0; i < len(key); i++ {
		sum ^= uint64(key[i])
		sum *= prime64
	}
	h1 := uint32(sum)
	h2 := uint32(sum >> 32)
	if h2 == 0 {
		h2 = 0x9e3779b9
	}
	return h1, h2
}

// Add inserts a key, setting its k double-hashed bit positions.
func (f *Filter) Add(key string) {
	h1, h2 := hashPair(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + i*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.additions++
}

// Test reports whether the key may have been added: false means definitely
// absent, true means present or a false positive.
//
//sdp:hotpath
func (f *Filter) Test(key string) bool {
	h1, h2 := hashPair(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + i*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Bits returns the filter size in bits.
func (f *Filter) Bits() int { return int(f.m) }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return int(f.k) }

// Additions returns the number of Add calls.
func (f *Filter) Additions() int { return f.additions }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	set := 0
	for _, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	return float64(set) / float64(f.m)
}

// EstimateFPR estimates the false-positive rate from the standard model
// (1 - e^(-kn/m))^k with n the number of additions.
func (f *Filter) EstimateFPR() float64 {
	if f.additions == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.additions) / float64(f.m)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}

// Union merges other into f. Both filters must share (m, k).
func (f *Filter) Union(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return fmt.Errorf("%w: (%d,%d) vs (%d,%d)", ErrBadShape, f.m, f.k, other.m, other.k)
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	if other.additions > f.additions {
		f.additions = other.additions
	}
	return nil
}

// Equal reports whether the two filters have the same shape and the same
// bits set, and so answer every Test alike. The count of additions is
// not compared: a key whose positions were all set already adds no bit.
func (f *Filter) Equal(other *Filter) bool {
	return f.m == other.m && f.k == other.k && slices.Equal(f.bits, other.bits)
}

// Clone returns an independent copy.
func (f *Filter) Clone() *Filter {
	cp := &Filter{bits: append([]uint64(nil), f.bits...), m: f.m, k: f.k, additions: f.additions}
	return cp
}

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.additions = 0
}

// Marshal serializes the filter for transmission between directories:
// 4-byte m, 4-byte k, 4-byte additions, then the bit words, little endian.
func (f *Filter) Marshal() []byte {
	marshalsTotal.Inc()
	summaryBytes.ObserveInt(int64(12 + 8*len(f.bits)))
	out := make([]byte, 12+8*len(f.bits))
	binary.LittleEndian.PutUint32(out[0:], f.m)
	binary.LittleEndian.PutUint32(out[4:], f.k)
	binary.LittleEndian.PutUint32(out[8:], uint32(f.additions))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[12+8*i:], w)
	}
	return out
}

// Unmarshal parses a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	unmarshalsTotal.Inc()
	if len(data) < 12 {
		return nil, fmt.Errorf("bloom: truncated filter (%d bytes)", len(data))
	}
	m := binary.LittleEndian.Uint32(data[0:])
	k := binary.LittleEndian.Uint32(data[4:])
	additions := binary.LittleEndian.Uint32(data[8:])
	if m == 0 || k == 0 {
		return nil, fmt.Errorf("%w: m=%d k=%d", ErrBadShape, m, k)
	}
	words := (int(m) + 63) / 64
	if len(data) != 12+8*words {
		return nil, fmt.Errorf("bloom: filter payload size %d, want %d", len(data), 12+8*words)
	}
	f := &Filter{bits: make([]uint64, words), m: m, k: k, additions: int(additions)}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[12+8*i:])
	}
	return f, nil
}

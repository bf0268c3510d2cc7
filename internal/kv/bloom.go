package kv

import (
	"encoding/binary"
	"math"
)

// bloomFilter is a classic Bloom filter over SSTable keys; GETs consult
// it to skip files that cannot contain the key.
type bloomFilter struct {
	bits   []byte
	hashes uint32
}

// newBloomFilter sizes a filter for n keys at roughly a 1% false-positive
// rate.
func newBloomFilter(n int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	m := int(math.Ceil(float64(n) * 9.6)) // bits for ~1% fp
	if m < 64 {
		m = 64
	}
	return &bloomFilter{
		bits:   make([]byte, (m+7)/8),
		hashes: 7,
	}
}

// bloomHash is the 64-bit FNV-1a hash of key. Its two halves are the
// filter's two independent 32-bit hashes; the k probe positions are their
// Kirsch–Mitzenmacher combinations.
func bloomHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (b *bloomFilter) add(key []byte) { b.addHash(bloomHash(key)) }

// addHash adds the key whose bloomHash is v.
func (b *bloomFilter) addHash(v uint64) {
	h1, h2 := uint32(v), uint32(v>>32)
	n := uint32(len(b.bits) * 8)
	for i := uint32(0); i < b.hashes; i++ {
		pos := (h1 + i*h2) % n
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

func (b *bloomFilter) mayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	v := bloomHash(key)
	h1, h2 := uint32(v), uint32(v>>32)
	n := uint32(len(b.bits) * 8)
	for i := uint32(0); i < b.hashes; i++ {
		pos := (h1 + i*h2) % n
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// marshal serializes the filter as [hashes u32][bits...].
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 4+len(b.bits))
	binary.LittleEndian.PutUint32(out, b.hashes)
	copy(out[4:], b.bits)
	return out
}

func unmarshalBloom(data []byte) (*bloomFilter, error) {
	if len(data) < 4 {
		return nil, ErrCorrupt
	}
	return &bloomFilter{
		hashes: binary.LittleEndian.Uint32(data),
		bits:   data[4:],
	}, nil
}

package vstore

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring in the style of Dynamo, used to spread
// dependency keys across version-store shards (§4.2, "Synapse shards the
// version store using a hash ring similar to Dynamo").
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

const virtualNodes = 256

func newRing(shards int) *ring {
	r := &ring{points: make([]ringPoint, 0, shards*virtualNodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			h := hashString(fmt.Sprintf("shard-%d-vnode-%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// locate returns the shard owning the hash: the first ring point at or
// after it, wrapping around.
func (r *ring) locate(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// FNV-1a, 64 bits, written out: hash/fnv's hasher is an allocation per
// call, and a key is hashed on every publish.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hashUint hashes v's eight bytes, least significant first.
func hashUint(v uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime
	}
	return h
}

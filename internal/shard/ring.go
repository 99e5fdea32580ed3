// Package shard fronts N kscope-server processes as one logical
// deployment. A consistent-hash router proxies every request to the shard
// that owns its key — test id for documents, pages, and blobs; test id +
// worker id for sessions — fails over to a shard's warm standby when the
// primary stops answering (reusing the internal/replica epoch-fencing
// semantics), and turns /results into a scatter/gather merge across the
// fleet. Membership is static: the ring is built once from the -shards
// flag, and its minimal-remap property (only ~1/N keys move when a shard
// joins or leaves) is what makes online rebalancing possible later.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-shard virtual-node count. 256 points per
// shard keeps the key distribution within a few percent of uniform (the
// ring's balance property test pins ±15%) while the whole ring stays a
// few-KB sorted slice searched in O(log n).
const DefaultVirtualNodes = 256

// Ring is a virtual-node consistent-hash ring over a static shard list.
// Each shard contributes vnodes points hashed from its name; a key
// belongs to the shard owning the first point at or clockwise after the
// key's hash. Adding or removing one shard therefore remaps only the keys
// whose owning arc moved — about 1/N of them — which is the property that
// keeps a future rebalancing PR's data movement proportional, not total.
type Ring struct {
	shards []string
	points []ringPoint // sorted by (hash, shard)
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over the named shards with vnodes virtual nodes
// per shard (<= 0 selects DefaultVirtualNodes). Shard names are the ring
// identity: the same names always produce the same ring, so a router
// restart routes every key exactly as before.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for i, name := range shards {
		if name == "" {
			return nil, errors.New("shard: empty shard name")
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: duplicate shard name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(name + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between vnodes are broken by shard index so the
		// ordering (and thus ownership) is deterministic.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// FNV-1a 64-bit, inlined: the ring hashes short keys on the request path
// and must not allocate a hash.Hash per lookup. Raw FNV-1a's high bits
// avalanche poorly on short, similar strings (vnode labels differ only in
// a numeric suffix; session keys share a test-id prefix), and ring
// position is decided by the HIGH bits of the sorted point hashes — so a
// final 64-bit mix (murmur3's fmix64) spreads the entropy through the
// whole word. Without it, shard shares deviate ±80% from uniform; with
// it, the balance property test holds within ±15%.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashKey(key string) uint64 {
	return fmix64(fnv1a(fnvOffset64, key))
}

// fnv1a folds key into the running FNV-1a state h, so a key can be hashed in
// pieces without being concatenated first.
func fnv1a[T string | []byte](h uint64, key T) uint64 {
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the index (into the constructor's shard list) of the
// shard owning key.
func (r *Ring) Owner(key string) int {
	return r.ownerOf(hashKey(key))
}

// sessionOwner is Owner(SessionKey(testID, workerID)) for a worker id that
// is still bytes in a request buffer: no key string is built.
func (r *Ring) sessionOwner(testID string, workerID []byte) int {
	return r.ownerOf(fmix64(fnv1a(fnv1a(fnv1a(fnvOffset64, testID), "/"), workerID)))
}

func (r *Ring) ownerOf(h uint64) int {
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last hash
	}
	return r.points[i].shard
}

// OwnerName returns the owning shard's name.
func (r *Ring) OwnerName(key string) string {
	return r.shards[r.Owner(key)]
}

// Shards returns the shard names, in constructor order. The slice is the
// ring's own; callers must not mutate it.
func (r *Ring) Shards() []string { return r.shards }

// SessionKey is the ring key for a worker's session documents: test id +
// worker id, matching the store's document ids, so a worker's upload and
// its idempotent 409 duplicate always land on the same shard.
func SessionKey(testID, workerID string) string {
	return testID + "/" + workerID
}

// TestKey is the ring key for a test's prepared document, pages, and
// blobs — everything keyed by test id alone.
func TestKey(testID string) string { return testID }

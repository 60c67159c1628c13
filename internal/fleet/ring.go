// Package fleet scales the single-process apspd oracle to a sharded,
// replicated backend fleet behind one router. It is the serving-side
// analogue of the paper's communication-avoiding block placement: graph
// fingerprints are consistent-hash-sharded across backends so each
// solved matrix lives on (and is only ever moved to) the replicas that
// serve it, hot (source, target) pairs are answered from a router-level
// cache without touching any backend, and admission control bounds the
// in-flight work each backend can be asked to absorb.
//
// The pieces:
//
//   - Ring: deterministic consistent hashing with virtual nodes
//     (placement survives router restarts, adding a shard moves ~1/N
//     of the keys);
//   - PairCache: the hot-pair LRU with generation-based invalidation
//     (Reweight's fingerprint swap can never serve a stale distance);
//   - Backend: one shard's client — bounded in-flight admission,
//     retry/backoff, health probing with ejection and re-admission;
//   - Router: the HTTP front-end gluing them together.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over backend names with virtual
// nodes. Placement is a pure function of the backend list and vnode
// count — no RNG, no map-iteration order, no process identity — so two
// routers (or one router across restarts) place every fingerprint
// identically, and adding a shard moves only the keys whose arc the
// new shard's vnodes capture (~1/N of them), not a full reshuffle.
type Ring struct {
	backends []string // deduped, sorted
	vnodes   int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// DefaultVNodes is the virtual-node count per backend on the router's
// ring: enough to keep the max/mean load ratio small without making
// ring construction or lookup noticeable.
const DefaultVNodes = 128

// hash64 is the ring's hash: the first 8 bytes of sha256, so placement
// is stable across processes, platforms and Go versions (maphash and
// friends are seeded per-process, which would break determinism).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given backend names. Duplicates are
// collapsed; order does not matter. vnodes <= 0 means DefaultVNodes.
func NewRing(backends []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(backends))
	var uniq []string
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("fleet: empty backend name")
		}
		if !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one backend")
	}
	sort.Strings(uniq)
	r := &Ring{backends: uniq, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for bi, b := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", b, v)),
				backend: bi,
			})
		}
	}
	// Ties broken by backend name so the order is total and identical
	// in every process.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.backends[r.points[i].backend] < r.backends[r.points[j].backend]
	})
	return r, nil
}

// Backends returns the deduped, sorted backend names.
func (r *Ring) Backends() []string {
	out := make([]string, len(r.backends))
	copy(out, r.backends)
	return out
}

// VNodes returns the virtual-node count per backend.
func (r *Ring) VNodes() int { return r.vnodes }

// Replicas returns the n distinct backends responsible for key, in
// ring order starting from the key's position: the first entry is the
// primary, the rest are the replicas a replication factor R > 1 fans
// writes out to. n is capped at the backend count.
func (r *Ring) Replicas(key string, n int) []string {
	if n > len(r.backends) {
		n = len(r.backends)
	}
	if n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.backend] {
			taken[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

// Primary returns the first backend responsible for key.
func (r *Ring) Primary(key string) string { return r.Replicas(key, 1)[0] }

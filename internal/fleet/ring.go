// Package fleet turns a set of independent heatstroked daemons into
// one sharded service. The coordinator consistent-hashes each job's
// content address onto a worker, proxies the full job surface
// (submit, status, SSE progress, artifacts), ships warm records to
// whichever worker a key lands on, retries dispatches across replicas
// when a worker dies, and hedges stragglers onto a second replica —
// all safe because sweeps are deterministic: any worker produces the
// byte-identical result for a given job ID, so retried, hedged, and
// resharded work can never disagree.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVnodes is the virtual-node count per ring member. Load
// imbalance shrinks with the square root of the point count; 512
// points per member keeps every member's share within 15% of uniform
// for the fleet sizes this package targets (single digits to tens of
// workers) — the ring property test pins that bound. The cost is a
// ~4K-entry sorted slice per 8-worker ring: negligible.
const DefaultVnodes = 512

// Ring is a consistent-hash ring: members (worker identities) own
// contiguous arcs of a 64-bit hash circle, and a key belongs to the
// first member point at or clockwise of the key's hash. Adding or
// removing one member moves only the keys on the arcs it gains or
// loses — about 1/N of the keyspace — which is the property that
// makes worker churn cheap: the rest of the fleet keeps its warm
// caches and content-addressed results.
//
// Ring is not safe for concurrent use; the coordinator guards it with
// its own mutex.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<= 0 means DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// ringHash maps a string to a point on the circle. sha256 rather than
// a cheaper hash so point placement is uniform and — critically —
// identical across processes and builds: every coordinator computes
// the same placement for the same membership.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + string(buf[:])),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}

// Owners returns up to n distinct members in ring order starting at
// the key's owner. The sequence is the key's replica preference list:
// element 0 is the primary, element 1 the hedge/failover target, and
// so on — and it is stable in the sense that removing one member
// shifts only that member out of the list.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

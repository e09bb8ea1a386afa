// Package ingest is the distributed ingestion tier: N edge collector nodes
// accept player heartbeat connections, each session owned by exactly one
// node chosen by consistent hash of its session ID, and relay assembled
// session records over disk-backed spools to a central aggregator that
// counts every session into its epoch's one count table and stamps every
// epoch with a coverage record. The paper's analysis assumes every session reaches one
// aggregation point; this tier keeps that true — or, when nodes die
// mid-epoch, makes the loss explicit so degraded epochs freeze the online
// detector instead of fabricating quality events.
package ingest

import (
	"sort"
	"sync"
)

// defaultReplicas is the virtual-point count per ring member. 64 points
// keeps the ownership split within a few percent of uniform for small
// member counts without making rebuilds expensive.
const defaultReplicas = 64

// mix64 is the splitmix64 finalizer: a full-avalanche mixer, so session IDs
// (often sequential) and member-name hashes spread uniformly around the
// ring.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a member name (an address string) to the ring's key space.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring of collector members (addresses). Every
// session ID maps to exactly one live member — the assembler that owns its
// heartbeats — and adding a member moves only the sessions whose arcs it
// takes over. Safe for concurrent use: players resolve owners while members
// are added.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	members  map[string]bool
	points   []ringPoint
}

// NewRing builds an empty ring; replicas <= 0 uses the default.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	r.rebuildLocked()
}

// rebuildLocked regenerates the sorted point set. Points derive only from
// member names, so a member lands on the same arcs whatever the order of
// the Add calls.
func (r *Ring) rebuildLocked() {
	r.points = r.points[:0]
	for m := range r.members {
		base := fnv64(m)
		for i := 0; i < r.replicas; i++ {
			r.points = append(r.points, ringPoint{hash: mix64(base + uint64(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Owner resolves the member owning a session ID; ok is false on an empty
// ring.
func (r *Ring) Owner(sessionID uint64) (member string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := mix64(sessionID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the arc past the last point belongs to the first
	}
	return r.points[i].member, true
}

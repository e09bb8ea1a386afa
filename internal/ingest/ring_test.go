package ingest

import "testing"

func TestRingDistributionRoughlyUniform(t *testing.T) {
	r := NewRing(0)
	members := []string{"node-a:1", "node-b:2", "node-c:3"}
	for _, m := range members {
		r.Add(m)
	}
	const n = 30000
	counts := make(map[string]int)
	for id := uint64(1); id <= n; id++ {
		m, ok := r.Owner(id)
		if !ok {
			t.Fatal("owner not found on populated ring")
		}
		counts[m]++
	}
	for _, m := range members {
		frac := float64(counts[m]) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %s owns %.1f%% of sessions; want a rough third", m, 100*frac)
		}
	}
}

func TestRingMembershipChangeMovesOnlyAffectedArcs(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Owner(42); ok {
		t.Fatal("empty ring resolved an owner")
	}
	r.Add("a")
	r.Add("b")
	const n = 10000
	before := make(map[uint64]string, n)
	for id := uint64(1); id <= n; id++ {
		before[id], _ = r.Owner(id)
	}

	// Adding c must not move any session between a and b.
	r.Add("c")
	r.Add("c") // idempotent
	after := make(map[uint64]string, n)
	moved := 0
	for id := uint64(1); id <= n; id++ {
		after[id], _ = r.Owner(id)
		if after[id] == "c" {
			moved++
		} else if after[id] != before[id] {
			t.Fatalf("session %d moved %s→%s though only c joined", id, before[id], after[id])
		}
	}
	if moved == 0 {
		t.Fatal("c owned nothing; distribution test should have caught this")
	}

	// Points derive from names only: any insertion order gives the same arcs.
	r2 := NewRing(0)
	for _, m := range []string{"c", "b", "a"} {
		r2.Add(m)
	}
	for id := uint64(1); id <= n; id++ {
		if got, _ := r2.Owner(id); got != after[id] {
			t.Fatalf("session %d owner %s != %s with members added in another order", id, got, after[id])
		}
	}
}

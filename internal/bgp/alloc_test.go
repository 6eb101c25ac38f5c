package bgp

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// TestSendPathZeroAllocs pins the zero-copy send→receive path: once the
// network has converged (intern table and event free-lists warm), a
// re-advertisement of an unchanged route must flow sender → wire → receiver
// without a single heap allocation. Any reintroduced per-message Route
// clone, path copy, or scheduling closure fails this test.
func TestSendPathZeroAllocs(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(7)
	net := New(sim, topo, quickCfg())
	if err := net.Originate(0, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	sp := net.Speaker(0)
	st := sp.prefixes[testPrefix]
	sess := -1
	for i, r := range st.out {
		if r != nil {
			sess = i
			break
		}
	}
	if sess < 0 {
		t.Fatal("origin speaker has no adj-RIB-out entry")
	}
	r := st.out[sess]

	avg := testing.AllocsPerRun(100, func() {
		sp.send(sess, Update{Type: Announce, Prefix: testPrefix, Route: r})
		for sim.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("duplicate re-advertisement allocated %.1f times per send; want 0", avg)
	}
}

// TestExportPathAllocBudget bounds the allocation cost of a real route
// change rippling through a small network. The budget covers the genuinely
// new state — one origin route, one materialized Route per changed
// adj-RIB-out entry, one shallow copy per import — and nothing per message:
// the pre-interning kernel cloned the route and its AS path on every hop
// and blows well past it.
func TestExportPathAllocBudget(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(9)
	net := New(sim, topo, quickCfg())

	pols := [2]*OriginPolicy{{}, {Prepend: 1}}
	if err := net.Originate(3, testPrefix, pols[0]); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	// Warm the intern table for both policies before measuring.
	net.Originate(3, testPrefix, pols[1])
	sim.Run()
	net.Originate(3, testPrefix, pols[0])
	sim.Run()

	i := 0
	avg := testing.AllocsPerRun(16, func() {
		i++
		net.Originate(3, testPrefix, pols[i%2])
		sim.Run()
	})
	// One full flap across 4 nodes currently costs ~20 allocations; 64
	// leaves slack for decision-process changes while still failing fast if
	// per-message cloning returns (that regime costs hundreds per flap).
	const budget = 64
	if avg > budget {
		t.Fatalf("route change allocated %.1f times per flap; budget %d", avg, budget)
	}
}

// TestRestoreAllocBudget verifies the copy-on-write acceptance criterion: a
// no-divergence Restore must share the snapshot's routes rather than deep-
// copying them. With N shared route slots in the snapshot, a deep copy
// costs at least one allocation per route before any bookkeeping; COW
// restore must stay under that line, and every restored loc-RIB best must
// be pointer-identical to the live network's.
func TestRestoreAllocBudget(t *testing.T) {
	topo := diamond(t)
	simA := netsim.New(5)
	netA := New(simA, topo, quickCfg())
	var prefixes []netip.Prefix
	for i := 0; i < 16; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i))
		prefixes = append(prefixes, p)
		if err := netA.Originate(topology.NodeID(i%4), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	simA.Run()
	snap, err := netA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	routes := 0
	for _, ss := range snap.speakers {
		for _, ps := range ss.prefixes {
			for _, r := range ps.in {
				if r != nil {
					routes++
				}
			}
			for _, r := range ps.out {
				if r != nil {
					routes++
				}
			}
		}
	}
	if routes < 100 {
		t.Fatalf("snapshot too small to be meaningful: %d route slots", routes)
	}

	simB := netsim.New(5)
	netB := New(simB, topo, quickCfg())
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if err := netB.Restore(snap); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	mallocs := m2.Mallocs - m1.Mallocs
	if mallocs >= uint64(routes) {
		t.Fatalf("no-divergence Restore made %d allocations for %d shared route slots — deep-copying?",
			mallocs, routes)
	}

	for id := topology.NodeID(0); id < 4; id++ {
		for _, p := range prefixes {
			if a, b := netA.Speaker(id).Best(p), netB.Speaker(id).Best(p); a != b {
				t.Fatalf("node %d prefix %s: restored best %p is not the shared snapshot route %p", id, p, b, a)
			}
		}
	}
}

// originatedSnapshot converges the diamond with n /24s originated round-
// robin across its four nodes and snapshots it.
func originatedSnapshot(t *testing.T, n int) *NetworkSnapshot {
	t.Helper()
	sim := netsim.New(5)
	net := New(sim, diamond(t), quickCfg())
	for i := 0; i < n; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		if err := net.Originate(topology.NodeID(i%4), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestoreAllocsIndependentOfPrefixes pins restore at O(touched): a
// no-divergence Restore reads the snapshot's frozen states in place, so it
// makes the same number of allocations whether the snapshot holds 16 or 64
// prefixes on the same topology.
func TestRestoreAllocsIndependentOfPrefixes(t *testing.T) {
	const runs = 8
	restoreAllocs := func(n int) float64 {
		snap := originatedSnapshot(t, n)
		nets := make([]*Network, runs+1) // AllocsPerRun adds one warm-up call
		for i := range nets {
			nets[i] = New(netsim.New(5), diamond(t), quickCfg())
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := nets[next].Restore(snap); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := restoreAllocs(16), restoreAllocs(64)
	if small != large {
		t.Fatalf("Restore made %.0f allocations for 16 prefixes and %.0f for 64: restore cost grows with the RIB", small, large)
	}
}

// TestReceiveCopiesOnePair pins copy-on-first-write at pair granularity:
// one UPDATE received by a restored speaker copies exactly the one
// (speaker, prefix) pair it writes, however many prefixes the speaker
// holds, and a second UPDATE for the same pair copies nothing more.
func TestReceiveCopiesOnePair(t *testing.T) {
	snap := originatedSnapshot(t, 16)
	net := New(netsim.New(5), diamond(t), quickCfg())
	if err := net.Restore(snap); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.Instrument(reg)
	copied := reg.Counter("bgp_prefix_states_copied_total")

	tt := net.Speaker(0)
	if len(tt.KnownPrefixes()) != 16 {
		t.Fatalf("T knows %d prefixes, want 16", len(tt.KnownPrefixes()))
	}
	p := tt.KnownPrefixes()[5]
	tt.receive(0, Update{Type: Withdraw, Prefix: p})
	if got := copied.Value(); got != 1 {
		t.Fatalf("one received UPDATE copied %d pairs, want 1", got)
	}
	if len(tt.prefixes) != 1 || tt.prefixes[p] == nil {
		t.Fatalf("T owns %d pairs after one UPDATE, want only %s", len(tt.prefixes), p)
	}
	tt.receive(1, Update{Type: Withdraw, Prefix: p})
	if got := copied.Value(); got != 1 {
		t.Fatalf("a second UPDATE for an owned pair copied again: %d copies", got)
	}
}

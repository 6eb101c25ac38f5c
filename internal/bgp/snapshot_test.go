package bgp

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// converge originates testPrefix with the given policy and drains the queue.
func convergeLine(t *testing.T, seed int64, pol *OriginPolicy) (*netsim.Sim, *Network) {
	t.Helper()
	sim := netsim.New(seed)
	net := New(sim, lineTopo(t), quickCfg())
	if err := net.Originate(0, testPrefix, pol); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return sim, net
}

// TestNetworkSnapshotRestoreEquivalence converges a network, snapshots it,
// restores into a fresh network, and checks that post-snapshot work (a
// withdrawal) plays out identically on the original and the restored copy.
func TestNetworkSnapshotRestoreEquivalence(t *testing.T) {
	const seed = 11
	pol := &OriginPolicy{Prepend: 2, Communities: []uint32{64512}}
	sim1, net1 := convergeLine(t, seed, pol)
	simSnap, err := sim1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	netSnap, err := net1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	sim2 := netsim.New(seed)
	net2 := New(sim2, lineTopo(t), quickCfg())
	bestReplays := 0
	net2.OnBestChange(func(topology.NodeID, netip.Prefix, *Route) { bestReplays++ })
	if err := sim2.Restore(simSnap); err != nil {
		t.Fatal(err)
	}
	if err := net2.Restore(netSnap); err != nil {
		t.Fatal(err)
	}

	if net2.MessageCount() != net1.MessageCount() {
		t.Fatalf("restored MessageCount = %d, want %d", net2.MessageCount(), net1.MessageCount())
	}
	if bestReplays != 3 {
		t.Fatalf("restore replayed %d best routes to OnBestChange, want 3", bestReplays)
	}
	for id := topology.NodeID(0); id < 3; id++ {
		b1, b2 := net1.Speaker(id).Best(testPrefix), net2.Speaker(id).Best(testPrefix)
		if (b1 == nil) != (b2 == nil) {
			t.Fatalf("node %d best-route presence differs after restore", id)
		}
		if b1 == nil {
			continue
		}
		if len(b1.Path) != len(b2.Path) {
			t.Fatalf("node %d path length differs: %v vs %v", id, b1.Path, b2.Path)
		}
		for i := range b1.Path {
			if b1.Path[i] != b2.Path[i] {
				t.Fatalf("node %d path differs: %v vs %v", id, b1.Path, b2.Path)
			}
		}
	}

	// Identical post-snapshot work must play out identically.
	net1.Withdraw(0, testPrefix)
	sim1.Run()
	net2.Withdraw(0, testPrefix)
	sim2.Run()
	if sim1.Now() != sim2.Now() || sim1.Steps() != sim2.Steps() {
		t.Fatalf("post-restore trajectories diverge: now %v/%v steps %d/%d",
			sim1.Now(), sim2.Now(), sim1.Steps(), sim2.Steps())
	}
	if net1.MessageCount() != net2.MessageCount() {
		t.Fatalf("post-restore MessageCount diverges: %d vs %d", net1.MessageCount(), net2.MessageCount())
	}
	for id := topology.NodeID(0); id < 3; id++ {
		if net2.Speaker(id).Best(testPrefix) != nil {
			t.Fatalf("node %d still has a route after withdrawal on restored network", id)
		}
	}
}

// TestNetworkSnapshotIsolation restores the same snapshot into two networks
// and checks the copy-on-write contract: restored worlds share the
// snapshot's immutable routes by pointer, and a world that diverges after
// restore swaps pointers in its own slices without leaking into its
// siblings or the snapshot.
func TestNetworkSnapshotIsolation(t *testing.T) {
	sim1, net1 := convergeLine(t, 5, nil)
	if _, err := sim1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := net1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restore := func() *Network {
		sim := netsim.New(5)
		net := New(sim, lineTopo(t), quickCfg())
		if err := net.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := restore(), restore()

	ra := a.Speaker(2).Best(testPrefix)
	rb := b.Speaker(2).Best(testPrefix)
	if ra != rb {
		t.Fatal("restored networks should share the snapshot's immutable *Route")
	}
	wantPath := append([]topology.ASN(nil), ra.Path...)

	// Diverge world a: withdraw the origination and run it to quiescence.
	// World b and any later restore must be unaffected.
	a.Withdraw(0, testPrefix)
	a.Sim().Run()
	if a.Speaker(2).Best(testPrefix) != nil {
		t.Fatal("world a still has a route after withdrawal")
	}
	if got := b.Speaker(2).Best(testPrefix); got != rb {
		t.Fatal("divergence in world a replaced world b's best route")
	}
	for i, asn := range b.Speaker(2).Best(testPrefix).Path {
		if asn != wantPath[i] {
			t.Fatalf("divergence in world a mutated the shared path: %v", b.Speaker(2).Best(testPrefix).Path)
		}
	}
	c := restore()
	if got := c.Speaker(2).Best(testPrefix); got != rb {
		t.Fatal("divergence in world a leaked into the snapshot")
	}

	checkRestoredWritePaths(t)
}

// frozenImage deep-copies every frozen prefix state of a snapshot, so a
// later comparison catches any write through a shared state: RIB slots,
// pacing deadlines, pending flags, damping state, best and origin.
func frozenImage(snap *NetworkSnapshot) [][]prefixState {
	img := make([][]prefixState, len(snap.speakers))
	for i, ss := range snap.speakers {
		for _, st := range ss.prefixes {
			c := *st
			c.in = slices.Clone(st.in)
			c.out = slices.Clone(st.out)
			c.nextAllowed = slices.Clone(st.nextAllowed)
			c.pending = slices.Clone(st.pending)
			c.damp = slices.Clone(st.damp)
			img[i] = append(img[i], c)
		}
	}
	return img
}

// ownedPairs counts the (speaker, prefix) pairs a network has copied or
// created since its restore.
func ownedPairs(n *Network) int {
	owned := 0
	for _, sp := range n.speakers {
		owned += len(sp.prefixes)
	}
	return owned
}

// sessionTo returns s's session index toward node id.
func sessionTo(t *testing.T, s *Speaker, id topology.NodeID) int {
	t.Helper()
	for i, adj := range s.node.Adj {
		if adj.To == id {
			return i
		}
	}
	t.Fatalf("node %d has no session to %d", s.node.ID, id)
	return -1
}

// checkRestoredWritePaths drives every path that writes prefix state —
// receive, origin withdrawal, link down/up (session flush and full
// re-advertisement), a link coming up that was down at snapshot time,
// session reset, damping, and an MRAI-paced export — on
// a world restored from a converged diamond. Each must copy exactly the
// pairs it writes (bgp_prefix_states_copied_total counts them) and leave
// the snapshot's frozen states untouched: the snapshot's deep image is
// unchanged, and a fresh restore and an idle sibling still digest to the
// snapshot-time routing state.
func checkRestoredWritePaths(t *testing.T) {
	// flapped converges the diamond with damping on and flaps O's
	// origination once, so C and D carry damping state into the snapshot.
	flapped := func(net *Network) {
		net.Originate(3, testPrefix, nil)
		net.Sim().Run()
		net.Withdraw(3, testPrefix)
		net.Sim().Run()
		net.Originate(3, testPrefix, nil)
		net.Sim().Run()
	}
	plain := func(net *Network) {
		net.Originate(3, testPrefix, nil)
		net.Sim().Run()
	}
	// linkDown converges with the O—C link down, so the snapshot's frozen
	// pairs hold nothing on that session.
	linkDown := func(net *Network) {
		plain(net)
		if err := net.SetLinkDown(3, 1); err != nil {
			t.Fatal(err)
		}
		net.Sim().Run()
	}
	cases := []struct {
		name     string
		cfg      Config
		converge func(*Network)
		write    func(t *testing.T, net *Network)
	}{
		{"receive", quickCfg(), plain, func(t *testing.T, net *Network) {
			// T hears C withdraw the prefix.
			tt := net.Speaker(0)
			tt.receive(sessionTo(t, tt, 1), Update{Type: Withdraw, Prefix: testPrefix})
		}},
		{"withdraw-origin", quickCfg(), plain, func(t *testing.T, net *Network) {
			net.Withdraw(3, testPrefix)
		}},
		{"link-down-up", quickCfg(), plain, func(t *testing.T, net *Network) {
			if err := net.SetLinkDown(3, 1); err != nil {
				t.Fatal(err)
			}
			net.Sim().Run()
			if err := net.SetLinkUp(3, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"link-up", quickCfg(), linkDown, func(t *testing.T, net *Network) {
			// The re-advertisement exports over a session the frozen pairs
			// hold nothing on: no flush copies them first.
			if err := net.SetLinkUp(3, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"session-reset", quickCfg(), plain, func(t *testing.T, net *Network) {
			if err := net.ResetSession(0, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"damping", dampCfg(), flapped, func(t *testing.T, net *Network) {
			net.Withdraw(3, testPrefix)
			net.Sim().RunFor(40)
			net.Originate(3, testPrefix, nil)
		}},
		{"mrai-paced-export", quickCfg(), plain, func(t *testing.T, net *Network) {
			// The converged origin sent its announcements less than one
			// MRAI ago, so re-exporting under a new policy is paced.
			net.Originate(3, testPrefix, &OriginPolicy{Prepend: 1})
			st := net.Speaker(3).prefixes[testPrefix]
			if st == nil || !slices.Contains(st.pending, true) {
				t.Fatal("re-origination was not paced by MRAI")
			}
		}},
	}
	for _, tc := range cases {
		t.Run("write-path="+tc.name, func(t *testing.T) {
			sim := netsim.New(3)
			src := New(sim, diamond(t), tc.cfg)
			tc.converge(src)
			want := src.RouteStateDigest()
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			image := frozenImage(snap)
			restore := func() *Network {
				net := New(netsim.New(3), diamond(t), tc.cfg)
				if err := net.Restore(snap); err != nil {
					t.Fatal(err)
				}
				return net
			}

			sibling := restore()
			w := restore()
			reg := obs.NewRegistry()
			w.Instrument(reg)
			tc.write(t, w)
			w.Sim().Run()
			copied := reg.Counter("bgp_prefix_states_copied_total").Value()
			if copied == 0 || copied != uint64(ownedPairs(w)) {
				t.Fatalf("copied %d pairs, own %d: every owned pair must be one first-write copy", copied, ownedPairs(w))
			}
			if tc.cfg.Damping != nil && reg.Counter("bgp_damping_flaps_total").Value() == 0 {
				t.Fatal("damping case recorded no flap")
			}
			if !reflect.DeepEqual(frozenImage(snap), image) {
				t.Fatal("a restored world wrote through the snapshot's frozen prefix state")
			}
			if got := restore().RouteStateDigest(); got != want {
				t.Errorf("fresh restore diverged from the snapshot:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if got := sibling.RouteStateDigest(); got != want {
				t.Errorf("sibling restore diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// TestSnapshotOfRestoredWorld snapshots a restored world after it diverges:
// pairs the world never wrote are shared by pointer with the first
// snapshot, the written ones are frozen anew, and restoring the second
// snapshot reproduces the diverged world's routing state.
func TestSnapshotOfRestoredWorld(t *testing.T) {
	_, src := convergedDiamond(t)
	p2 := netip.MustParsePrefix("10.0.0.0/8")
	if err := src.Originate(0, p2, nil); err != nil {
		t.Fatal(err)
	}
	src.Sim().Run()
	snap1, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := New(netsim.New(1), diamond(t), quickCfg())
	if err := w.Restore(snap1); err != nil {
		t.Fatal(err)
	}
	w.Withdraw(3, testPrefix)
	w.Sim().Run()
	want := w.RouteStateDigest()
	snap2, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	shared, frozen := 0, 0
	for i, ss := range snap2.speakers {
		for k, st := range ss.prefixes {
			if !st.frozen {
				t.Fatalf("speaker %d prefix %s: snapshot holds an unfrozen state", i, st.prefix)
			}
			if _, owned := w.speakers[i].prefixes[st.prefix]; owned {
				frozen++
				continue
			}
			if st != snap1.speakers[i].prefixes[k] {
				t.Fatalf("speaker %d prefix %s: unwritten pair was not shared with the first snapshot", i, st.prefix)
			}
			shared++
		}
	}
	if shared == 0 || frozen == 0 {
		t.Fatalf("shared %d, newly frozen %d pairs: want both", shared, frozen)
	}
	w2 := New(netsim.New(1), diamond(t), quickCfg())
	if err := w2.Restore(snap2); err != nil {
		t.Fatal(err)
	}
	if got := w2.RouteStateDigest(); got != want {
		t.Errorf("restore of a restored world's snapshot differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestNetworkSnapshotRefusals(t *testing.T) {
	sim := netsim.New(1)
	net := New(sim, lineTopo(t), quickCfg())
	if err := net.Originate(0, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Snapshot(); err == nil {
		t.Fatal("snapshot with pending events accepted")
	}
	sim.Run()
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Restoring over a network that already has prefix state must fail.
	if err := net.Restore(snap); err == nil {
		t.Fatal("restore over a non-fresh network accepted")
	}
}

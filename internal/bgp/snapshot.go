package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// NetworkSnapshot is a copy-on-write capture of all per-speaker protocol
// state at a quiescent moment: adj-RIBs-in/out, loc-RIB best routes,
// origination policies, MRAI pacing deadlines, damping penalties, and the
// TCP in-order delivery clocks. Together with a netsim.Snapshot of the
// kernel it is the complete converged-world state of the control plane.
//
// Each (speaker, prefix) pair is captured as a frozen prefixState that is
// never written again. Routes and origin policies are immutable after
// publish (see the Route doc), so frozen states share their pointers with
// the live network; only the per-session slices are cloned. Restore does
// not copy the frozen states either: a restored speaker reads them in
// place and copies a pair only the first time it writes it (Speaker.mut),
// so a restored world pays for the pairs its run changes, not for the
// whole RIB. The snapshot also carries a path-intern table built from the
// frozen adj-RIB-out paths, shared read-only by every restore.
//
// Snapshots can only be taken when no simulation events are pending (in
// flight updates hold state that cannot be transplanted), which is exactly
// the state a fully converged network leaves behind. A snapshot is immutable
// after capture and may be restored into any number of freshly built
// networks, concurrently: restores only read the frozen states and the
// path table.
type NetworkSnapshot struct {
	// kernels capture each shard simulator's clock, sequence counter, and
	// RNG position (one entry per shard; the unsharded single shard wraps
	// the control simulator, whose kernel the world snapshot also carries —
	// restoring it twice is idempotent).
	kernels  []netsim.Snapshot
	speakers []speakerSnapshot
	// paths interns every frozen adj-RIB-out path, seeded in speaker, then
	// prefix, then session order; restored shards use it as their read-only
	// intern base.
	paths map[string][]topology.ASN
}

type speakerSnapshot struct {
	msgCount        uint64
	lastDeliver     []netsim.Seconds
	lastFeedDeliver netsim.Seconds
	downSess        []bool
	sessEpoch       []uint64
	// known lists the speaker's prefixes in sorted order and prefixes[k]
	// is known[k]'s frozen state.
	known    []netip.Prefix
	prefixes []*prefixState
}

// Snapshot captures the network's protocol state copy-on-write. It fails if
// simulation events are pending: snapshot only a converged network. Pairs a
// restored speaker still reads from its own snapshot are shared by pointer;
// only the pairs a speaker owns are frozen anew.
func (n *Network) Snapshot() (*NetworkSnapshot, error) {
	if pending := n.sim.Pending(); pending != 0 {
		return nil, fmt.Errorf("bgp: cannot snapshot with %d pending events", pending)
	}
	snap := &NetworkSnapshot{
		kernels:  make([]netsim.Snapshot, len(n.shards)),
		speakers: make([]speakerSnapshot, len(n.speakers)),
	}
	for i, sh := range n.shards {
		ks, err := sh.sim.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("bgp: shard %d kernel: %w", i, err)
		}
		snap.kernels[i] = ks
	}
	paths := newPathIntern()
	for i, sp := range n.speakers {
		known := slices.Clone(sp.KnownPrefixes()) // sorted: deterministic restore order
		ss := speakerSnapshot{
			msgCount:        sp.msgCount,
			lastDeliver:     slices.Clone(sp.lastDeliver),
			lastFeedDeliver: sp.lastFeedDeliver,
			downSess:        slices.Clone(sp.downSess),
			sessEpoch:       slices.Clone(sp.sessEpoch),
			known:           known,
			prefixes:        make([]*prefixState, len(known)),
		}
		// Freeze the owned pairs into three backing arrays (states, route
		// slots, pacing deadlines) instead of allocating per prefix.
		nAdj, owned := len(sp.node.Adj), len(sp.prefixes)
		slab := make([]prefixState, owned)
		routeBacking := make([]*Route, 2*nAdj*owned)
		timeBacking := make([]netsim.Seconds, nAdj*owned)
		k := 0
		for j, p := range known {
			st := sp.readAt(j, p)
			if !st.frozen {
				rib := routeBacking[2*nAdj*k : 2*nAdj*(k+1) : 2*nAdj*(k+1)]
				f := &slab[k]
				*f = prefixState{
					prefix:      p,
					in:          rib[:nAdj:nAdj],
					out:         rib[nAdj:],
					nextAllowed: timeBacking[nAdj*k : nAdj*(k+1) : nAdj*(k+1)],
					best:        st.best,
					origin:      st.origin,
					originRoute: st.originRoute,
					damp:        slices.Clone(st.damp),
					frozen:      true,
				}
				copy(f.in, st.in)
				copy(f.out, st.out)
				copy(f.nextAllowed, st.nextAllowed)
				st = f
				k++
			}
			ss.prefixes[j] = st
			for _, r := range st.out {
				if r != nil {
					paths.seed(r.Path)
				}
			}
		}
		snap.speakers[i] = ss
	}
	snap.paths = paths.m
	return snap, nil
}

// Restore installs a snapshot into a freshly built network over an
// identically shaped topology (same node count and adjacency layout, e.g.
// regenerated from the same GenConfig). Restore copies no RIB state: each
// speaker reads the snapshot's frozen prefix states in place and copies a
// (speaker, prefix) pair only on its first write, and each shard interns
// AS paths over the snapshot's shared path table with a private overlay.
// A no-divergence restore therefore allocates nothing per prefix, and
// concurrent restores from one snapshot are safe.
//
// Loc-RIB best routes are replayed to OnBestChange subscribers (rebuilding
// data-plane FIBs) but NOT to collector feeds: feed deliveries are
// simulation events, and the archive a collector accumulated up to the
// snapshot point is restored separately.
func (n *Network) Restore(snap *NetworkSnapshot) error {
	if pending := n.sim.Pending(); pending != 0 {
		return fmt.Errorf("bgp: cannot restore with %d pending events", pending)
	}
	if len(snap.speakers) != len(n.speakers) {
		return fmt.Errorf("bgp: snapshot has %d speakers, network has %d", len(snap.speakers), len(n.speakers))
	}
	for i, sp := range n.speakers {
		if len(sp.prefixes) != 0 || sp.base != nil {
			return fmt.Errorf("bgp: speaker %d already has prefix state; restore requires a fresh network", i)
		}
		if len(snap.speakers[i].lastDeliver) != len(sp.node.Adj) {
			return fmt.Errorf("bgp: speaker %d adjacency count mismatch", i)
		}
	}
	if len(snap.kernels) != len(n.shards) {
		return fmt.Errorf("bgp: snapshot has %d shard kernels, network has %d shards", len(snap.kernels), len(n.shards))
	}
	for i, sh := range n.shards {
		if err := sh.sim.Restore(snap.kernels[i]); err != nil {
			return fmt.Errorf("bgp: shard %d kernel: %w", i, err)
		}
		sh.intern.base = snap.paths
	}
	for i, ss := range snap.speakers {
		sp := n.speakers[i]
		sp.msgCount = ss.msgCount
		copy(sp.lastDeliver, ss.lastDeliver)
		sp.lastFeedDeliver = ss.lastFeedDeliver
		copy(sp.downSess, ss.downSess)
		copy(sp.sessEpoch, ss.sessEpoch)
		sp.base = ss.prefixes
		sp.baseKnown = ss.known
		for _, st := range ss.prefixes {
			if st.best != nil {
				for _, fn := range n.onBest {
					fn(sp.node.ID, st.prefix, st.best)
				}
			}
		}
	}
	return nil
}

package bgp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// refRouteStateDigest is the fmt-based route-state renderer the streaming
// encoder replaced, kept as the byte-identity oracle: every digest,
// receipt and recorded value in the repository was produced by this text.
func refRouteStateDigest(n *Network) string {
	var b strings.Builder
	for _, sp := range n.speakers {
		var lines []string
		for _, p := range sp.KnownPrefixes() {
			st := sp.prefixes[p]
			var sb strings.Builder
			if st.origin != nil {
				fmt.Fprintf(&sb, "  origin %s\n", refOriginWire(st.origin))
			}
			if st.best != nil {
				fmt.Fprintf(&sb, "  best sess=%d %s\n", st.best.learnedFrom, refRouteWire(st.best))
			}
			for sess, r := range st.in {
				if r != nil {
					fmt.Fprintf(&sb, "  in[%d] lp=%d %s\n", sess, r.LocalPref, refRouteWire(r))
				}
			}
			for sess, r := range st.out {
				if r != nil {
					fmt.Fprintf(&sb, "  out[%d] %s\n", sess, refRouteWire(r))
				}
			}
			if sb.Len() == 0 {
				continue // empty husk left by a full withdraw cycle
			}
			lines = append(lines, fmt.Sprintf("%s %s\n%s", sp.node.Name, p, sb.String()))
		}
		for _, l := range lines {
			b.WriteString(l)
		}
	}
	return b.String()
}

func refRouteWire(r *Route) string {
	return fmt.Sprintf("path=%v med=%d comm=%v", r.Path, r.MED, r.Communities)
}

func refOriginWire(pol *OriginPolicy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prepend=%d med=%d comm=%v", pol.Prepend, pol.MED, pol.Communities)
	if len(pol.PerNeighbor) > 0 {
		ids := make([]topology.NodeID, 0, len(pol.PerNeighbor))
		for id := range pol.PerNeighbor {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			np := pol.PerNeighbor[id]
			fmt.Fprintf(&b, " nbr[%d]={export=%t prepend=%d}", id, np.Export, np.Prepend)
		}
	}
	return b.String()
}

// checkRouteStateEncoder asserts that RouteStateDigest reproduces the
// reference text byte for byte and that streaming WriteRouteState into
// SHA-256 yields the hash of that text. It returns the reference text.
func checkRouteStateEncoder(t *testing.T, n *Network) string {
	t.Helper()
	want := refRouteStateDigest(n)
	if got := n.RouteStateDigest(); got != want {
		t.Fatalf("RouteStateDigest (%d bytes) differs from the reference renderer (%d bytes)", len(got), len(want))
	}
	h := sha256.New()
	if err := n.WriteRouteState(h); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256([]byte(want)); !bytes.Equal(h.Sum(nil), sum[:]) {
		t.Fatal("streamed route-state hash differs from SHA-256 of the reference text")
	}
	return want
}

func TestRouteStateEncoderPerNeighborOrigin(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	pol := &OriginPolicy{
		Prepend: 1, MED: 7, Communities: []uint32{65000<<16 | 42, 7},
		PerNeighbor: map[topology.NodeID]NeighborPolicy{
			2: {Export: false},
			1: {Export: true, Prepend: 2},
		},
	}
	if err := net.Originate(3, testPrefix, pol); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	text := checkRouteStateEncoder(t, net)
	if !strings.Contains(text, "nbr[1]={export=true prepend=2} nbr[2]={export=false prepend=0}") {
		t.Fatalf("per-neighbor overrides missing or unsorted in:\n%s", text)
	}
}

func TestRouteStateEncoderDamping(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, dampCfg())
	for i := 0; i < 3; i++ {
		net.Originate(0, testPrefix, nil)
		sim.RunFor(40)
		checkRouteStateEncoder(t, net)
		net.Withdraw(0, testPrefix)
		sim.RunFor(40)
		checkRouteStateEncoder(t, net)
	}
	net.Originate(0, testPrefix, nil)
	sim.RunFor(40)
	checkRouteStateEncoder(t, net) // suppressed at A
	sim.RunFor(3 * 900)
	checkRouteStateEncoder(t, net) // reinstated after decay
}

func TestRouteStateEncoderFailRecover(t *testing.T) {
	sim, net := convergedDiamond(t)
	before := checkRouteStateEncoder(t, net)
	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	checkRouteStateEncoder(t, net)
	if err := net.SetLinkUp(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if after := checkRouteStateEncoder(t, net); after != before {
		t.Fatal("route state after link fail→recover differs from the never-failed state")
	}
}

func TestRouteStateEncoderSkipsEmptyHusks(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	live := netip.MustParsePrefix("10.0.0.0/16")
	net.Originate(2, live, nil)
	net.Originate(0, testPrefix, nil)
	sim.Run()
	net.Withdraw(0, testPrefix)
	sim.Run()
	if len(net.Speaker(1).KnownPrefixes()) != 2 {
		t.Fatal("withdrawal left no husk at A; the test no longer exercises the skip")
	}
	text := checkRouteStateEncoder(t, net)
	if strings.Contains(text, testPrefix.String()) || !strings.Contains(text, live.String()) {
		t.Fatalf("husk skip wrong: want only %s in:\n%s", live, text)
	}
}

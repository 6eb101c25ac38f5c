package dataplane

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/iptrie"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// refEntry is one forwarding entry as the reference FIBs see it.
type refEntry struct {
	local bool
	next  topology.NodeID
	delay float64
}

// refFIBs builds the reference forwarding tables: one iptrie per node,
// filled from that node's loc-RIB best routes. It reads only the BGP
// speakers, never the plane's own storage, so comparing the plane against
// it checks both what the plane recorded and how it looks routes up.
func refFIBs(p *Plane) []*iptrie.Trie[refEntry] {
	fibs := make([]*iptrie.Trie[refEntry], p.topo.Len())
	for i := range fibs {
		id := topology.NodeID(i)
		fib := iptrie.New[refEntry]()
		sp := p.net.Speaker(id)
		for _, pfx := range sp.KnownPrefixes() {
			r := sp.Best(pfx)
			if r == nil {
				continue
			}
			e := refEntry{local: true}
			if sess := r.LearnedFrom(); sess >= 0 {
				adj := p.topo.Node(id).Adj[sess]
				e = refEntry{next: adj.To, delay: adj.Delay}
			}
			if err := fib.Insert(pfx, e); err != nil {
				panic(err)
			}
		}
		fibs[i] = fib
	}
	return fibs
}

// refFIBDigest is the fmt-based FIB renderer the streaming encoder
// replaced, kept as the byte-identity oracle over the reference FIBs. It
// sorts every table by (address, length) itself, so comparing against it
// also pins the order the encoder emits.
func refFIBDigest(fibs []*iptrie.Trie[refEntry]) string {
	type rec struct {
		pfx netip.Prefix
		e   refEntry
	}
	var b strings.Builder
	for id, fib := range fibs {
		var recs []rec
		fib.Walk(func(pfx netip.Prefix, e refEntry) bool {
			recs = append(recs, rec{pfx, e})
			return true
		})
		sort.Slice(recs, func(i, j int) bool {
			a, b := recs[i].pfx, recs[j].pfx
			if c := a.Addr().Compare(b.Addr()); c != 0 {
				return c < 0
			}
			return a.Bits() < b.Bits()
		})
		if len(recs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "node %d\n", id)
		for _, r := range recs {
			if r.e.local {
				fmt.Fprintf(&b, "  %s local\n", r.pfx)
			} else {
				fmt.Fprintf(&b, "  %s via %d\n", r.pfx, r.e.next)
			}
		}
	}
	return b.String()
}

// refForward is the hop-by-hop walk of Plane.forward over the reference
// FIBs: a trie longest-prefix match at every hop.
func refForward(p *Plane, fibs []*iptrie.Trie[refEntry], src topology.NodeID, dst netip.Addr) ForwardResult {
	res := ForwardResult{Path: []topology.NodeID{}}
	cur := src
	for hops := 0; hops <= MaxHops; hops++ {
		res.Path = append(res.Path, cur)
		if p.down[cur] {
			res.Reason = DropNodeDown
			return res
		}
		_, e, ok := fibs[cur].Lookup(dst)
		if !ok {
			res.Reason = DropNoRoute
			return res
		}
		if e.local {
			res.Delivered, res.Dest = true, cur
			return res
		}
		res.Delay += e.delay
		cur = e.next
	}
	res.Reason = DropLoop
	return res
}

// probeAddrs returns destinations around every prefix the reference FIBs
// hold: its first, tenth and last address, the IPv4-mapped IPv6 form of
// each IPv4 one, and a few addresses outside every prefix.
func probeAddrs(fibs []*iptrie.Trie[refEntry]) []netip.Addr {
	seen := map[netip.Prefix]bool{}
	var pfxs []netip.Prefix
	for _, fib := range fibs {
		for _, pfx := range fib.Prefixes() {
			if !seen[pfx] {
				seen[pfx] = true
				pfxs = append(pfxs, pfx)
			}
		}
	}
	sort.Slice(pfxs, func(i, j int) bool { return pfxs[i].String() < pfxs[j].String() })
	addrs := []netip.Addr{
		netip.MustParseAddr("8.8.8.8"),
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("2001:db8:ffff::1"),
		netip.MustParseAddr("::"),
	}
	for _, pfx := range pfxs {
		first := pfx.Addr()
		last := lastAddr(pfx)
		tenth := first
		for i := 0; i < 10 && pfx.Contains(tenth.Next()); i++ {
			tenth = tenth.Next()
		}
		for _, a := range []netip.Addr{first, tenth, last, last.Next()} {
			if !a.IsValid() {
				continue
			}
			addrs = append(addrs, a)
			if a.Is4() {
				addrs = append(addrs, netip.AddrFrom16(a.As16()))
			}
		}
	}
	return addrs
}

// lastAddr returns the highest address inside pfx.
func lastAddr(pfx netip.Prefix) netip.Addr {
	b := pfx.Masked().Addr().AsSlice()
	for i := pfx.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 1 << (7 - i%8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

// checkForward asserts that Forward and ForwardTrace agree with refForward
// from every node toward every address in dsts.
func checkForward(t *testing.T, p *Plane, fibs []*iptrie.Trie[refEntry], dsts []netip.Addr) {
	t.Helper()
	for src := range p.topo.Len() {
		for _, dst := range dsts {
			want := refForward(p, fibs, topology.NodeID(src), dst)
			got := p.ForwardTrace(topology.NodeID(src), dst)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ForwardTrace(%d, %s) = %+v, trie reference %+v", src, dst, got, want)
			}
			want.Path = nil
			if got := p.Forward(topology.NodeID(src), dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("Forward(%d, %s) = %+v, trie reference %+v", src, dst, got, want)
			}
		}
	}
}

// checkFIB asserts that the plane matches reference FIBs rebuilt from the
// speakers' loc-RIBs: FIBDigest reproduces the reference text byte for
// byte, streaming WriteFIB into SHA-256 yields the hash of that text, and
// every node forwards every probe address as the reference tries do. It
// returns the reference text.
func checkFIB(t *testing.T, p *Plane) string {
	t.Helper()
	fibs := refFIBs(p)
	want := refFIBDigest(fibs)
	if got := p.FIBDigest(); got != want {
		t.Fatalf("FIBDigest (%d bytes) differs from the reference renderer (%d bytes)", len(got), len(want))
	}
	h := sha256.New()
	if err := p.WriteFIB(h); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256([]byte(want)); !bytes.Equal(h.Sum(nil), sum[:]) {
		t.Fatal("streamed FIB hash differs from SHA-256 of the reference text")
	}
	checkForward(t, p, fibs, probeAddrs(fibs))
	return want
}

// TestFIBEncoderNestedAndDualStack covers the orders the encoder must get
// right: a prefix before its more-specifics, a lower address before a
// higher one, and every IPv4 entry before any IPv6 entry.
func TestFIBEncoderNestedAndDualStack(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	for _, o := range []struct {
		node string
		pfx  string
	}{
		{"s2", "2001:db8:1::/48"},
		{"s1", "2001:db8::/32"},
		{"s1", "184.164.245.0/24"},
		{"s1", "184.164.244.0/24"},
		{"s2", "184.164.244.0/23"},
		{"s2", "10.0.0.0/8"},
	} {
		if err := net.Originate(ids[o.node], netip.MustParsePrefix(o.pfx), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	text := checkFIB(t, plane)
	want := "node 0\n" +
		"  10.0.0.0/8 via 1\n" +
		"  184.164.244.0/23 via 1\n" +
		"  184.164.244.0/24 via 2\n" +
		"  184.164.245.0/24 via 2\n" +
		"  2001:db8::/32 via 2\n" +
		"  2001:db8:1::/48 via 1\n"
	if !strings.HasPrefix(text, want) {
		t.Fatalf("node 0 FIB rendered as\n%s\nwant prefix\n%s", text, want)
	}

	net.Withdraw(ids["s1"], netip.MustParsePrefix("184.164.244.0/24"))
	sim.Run()
	checkFIB(t, plane)
}

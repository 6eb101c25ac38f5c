package dataplane

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// fibRecord is one forwarding entry as the reference renderer sees it.
type fibRecord struct {
	Prefix netip.Prefix
	Local  bool
	Next   topology.NodeID
}

// refFIBDigest is the fmt-based FIB renderer the streaming encoder
// replaced, kept as the byte-identity oracle. It sorts every table by
// (address, length) itself, so comparing against it also pins the order
// the encoder relies on the trie walk to produce.
func refFIBDigest(p *Plane) string {
	var b strings.Builder
	for id, fib := range p.fibs {
		var recs []fibRecord
		fib.Walk(func(pfx netip.Prefix, e fibEntry) bool {
			recs = append(recs, fibRecord{Prefix: pfx, Local: e.local, Next: e.next})
			return true
		})
		sort.Slice(recs, func(i, j int) bool {
			a, b := recs[i].Prefix, recs[j].Prefix
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
			if r.Local {
				fmt.Fprintf(&b, "  %s local\n", r.Prefix)
			} else {
				fmt.Fprintf(&b, "  %s via %d\n", r.Prefix, r.Next)
			}
		}
	}
	return b.String()
}

// checkFIBEncoder asserts that FIBDigest reproduces the reference text
// byte for byte and that streaming WriteFIB into SHA-256 yields the hash
// of that text. It returns the reference text.
func checkFIBEncoder(t *testing.T, p *Plane) string {
	t.Helper()
	want := refFIBDigest(p)
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
	return want
}

// TestFIBEncoderNestedAndDualStack covers the orders the trie walk must get
// right: a prefix before its more-specifics, a left subtree before a right
// one, and every IPv4 entry before any IPv6 entry.
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
	text := checkFIBEncoder(t, plane)
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
	checkFIBEncoder(t, plane)
}

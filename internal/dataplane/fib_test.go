package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

func smallTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Seed: 5, NumTransit: 20, NumRegional: 12, NumEyeball: 40, NumStub: 120, NumUniversity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// randomPrefixes draws n distinct prefixes that nest and overlap: IPv4
// lengths 8–30 inside 10.0.0.0/8, IPv6 lengths 16–64 inside 2001:db8::/32,
// and IPv4-mapped IPv6 prefixes (::ffff:10.x.y.z/104–126), which only
// IPv6 destinations can match.
func randomPrefixes(rng *rand.Rand, n int) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	var out []netip.Prefix
	for len(out) < n {
		var p netip.Prefix
		switch rng.Intn(3) {
		case 0:
			a := [4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))}
			p = netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.Intn(23)).Masked()
		case 1:
			a := netip.MustParseAddr("2001:db8::").As16()
			a[4], a[5], a[6] = byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))
			p = netip.PrefixFrom(netip.AddrFrom16(a), 16+rng.Intn(49)).Masked()
		default:
			a := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))}).As16()
			p = netip.PrefixFrom(netip.AddrFrom16(a), 104+rng.Intn(23)).Masked()
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// randomAddr draws a destination: usually inside one of pfxs (random host
// bits, in its own family or, for IPv4, as the IPv4-mapped IPv6 address;
// IPv6 ones sometimes zoned), otherwise an address from anywhere in either
// family.
func randomAddr(rng *rand.Rand, pfxs []netip.Prefix) netip.Addr {
	if rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		}
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	}
	p := pfxs[rng.Intn(len(pfxs))]
	b := p.Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		if rng.Intn(2) == 1 {
			b[i/8] |= 1 << (7 - i%8)
		}
	}
	a, _ := netip.AddrFromSlice(b)
	if a.Is4() && rng.Intn(3) == 0 {
		a = netip.AddrFrom16(a.As16())
	}
	if a.Is6() && rng.Intn(4) == 0 {
		a = a.WithZone("eth0") // lookups ignore the zone
	}
	return a
}

// TestForwardMatchesTrieLPM is the property test of the flat FIB's lookup:
// with dozens of nested, dual-stack and IPv4-mapped prefixes originated,
// withdrawn and re-originated at random nodes, and FIBs checked in the
// middle of convergence as well as after it, Forward from random nodes to
// random destinations must equal hop-by-hop trie longest-prefix match over
// reference FIBs rebuilt from the loc-RIBs.
func TestForwardMatchesTrieLPM(t *testing.T) {
	topo := smallTopo(t)
	rng := rand.New(rand.NewSource(11))
	sim := netsim.New(3)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	pfxs := randomPrefixes(rng, 48)
	origin := map[netip.Prefix]topology.NodeID{}

	check := func(stage string) {
		t.Helper()
		fibs := refFIBs(plane)
		if got, want := plane.FIBDigest(), refFIBDigest(fibs); got != want {
			t.Fatalf("%s: FIBDigest differs from the reference tries", stage)
		}
		for i := 0; i < 3000; i++ {
			src := topology.NodeID(rng.Intn(topo.Len()))
			dst := randomAddr(rng, pfxs)
			want := refForward(plane, fibs, src, dst)
			want.Path = nil
			if got := plane.Forward(src, dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Forward(%d, %s) = %+v, trie reference %+v", stage, src, dst, got, want)
			}
		}
	}

	for round := 0; round < 6; round++ {
		for _, p := range pfxs {
			switch o, ok := origin[p]; {
			case !ok && rng.Intn(2) == 0:
				n := topology.NodeID(rng.Intn(topo.Len()))
				if err := net.Originate(n, p, nil); err != nil {
					t.Fatal(err)
				}
				origin[p] = n
			case ok && rng.Intn(3) == 0:
				net.Withdraw(o, p)
				delete(origin, p)
			}
		}
		for i := 0; i < 3; i++ {
			plane.SetDown(topology.NodeID(rng.Intn(topo.Len())), rng.Intn(2) == 0)
		}
		sim.RunFor(0.3 + rng.Float64())
		check(fmt.Sprintf("round %d mid-convergence", round))
		sim.Run()
		check(fmt.Sprintf("round %d converged", round))
	}
}

// TestForwardZeroAllocs pins the forwarding walk's allocation contract:
// Forward, on a hit, a miss and a loop-free multi-hop path, allocates
// nothing.
func TestForwardZeroAllocs(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	net.Originate(ids["s2"], superP, nil)
	net.Originate(ids["s2"], netip.MustParsePrefix("2001:db8::/32"), nil)
	sim.Run()
	for _, dst := range []netip.Addr{addrA, addrSup, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("8.8.8.8")} {
		allocs := testing.AllocsPerRun(1000, func() { plane.Forward(ids["c"], dst) })
		if allocs != 0 {
			t.Fatalf("Forward(c, %s) allocated %v times per walk", dst, allocs)
		}
	}
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	fn()
	runtime.ReadMemStats(&m2)
	return m2.Mallocs - m1.Mallocs
}

// TestFIBAllocsPerPrefix pins the flat FIB's allocation profile: New
// allocates a constant amount whatever the topology size (the trie FIB
// carved a slab per AS), and a restore replay allocates per prefix (one
// column each, plus amortized growth of the prefix table), not per AS.
func TestFIBAllocsPerPrefix(t *testing.T) {
	topo := smallTopo(t)
	if topo.Len() < 200 {
		t.Fatalf("topology too small to tell per-AS from per-prefix: %d nodes", topo.Len())
	}
	simA := netsim.New(5)
	netA := bgp.New(simA, topo, cfg())
	const nPrefixes = 16
	for i := 0; i < nPrefixes; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i))
		if err := netA.Originate(topology.NodeID(i*7%topo.Len()), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	simA.Run()
	snap, err := netA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	netB := bgp.New(netsim.New(5), topo, cfg())
	var plane *Plane
	if n := mallocs(func() { plane = New(netB) }); n > 8 {
		t.Fatalf("New allocated %d times on %d nodes; want a constant, not per AS", n, topo.Len())
	}
	withPlane := mallocs(func() {
		if err := netB.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	netC := bgp.New(netsim.New(5), topo, cfg())
	bare := mallocs(func() {
		if err := netC.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	replay := int64(withPlane) - int64(bare)
	t.Logf("restore replay: %d allocations for %d prefixes on %d nodes", replay, nPrefixes, topo.Len())
	if budget := int64(3*nPrefixes + 16); replay > budget {
		t.Fatalf("restore replay into the FIB allocated %d times for %d prefixes on %d nodes; budget %d",
			replay, nPrefixes, topo.Len(), budget)
	}
	if len(plane.pfxs) != nPrefixes {
		t.Fatalf("plane registered %d prefixes, want %d", len(plane.pfxs), nPrefixes)
	}
}

package ctlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dns"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
	"bestofboth/pkg/bestofboth/api"
)

// refZoneText is the fmt-based zone rendering zoneHash used to hash, kept
// as the byte-identity oracle for writeZone.
func refZoneText(auth *dns.Authoritative) string {
	var b strings.Builder
	fmt.Fprintf(&b, "origin %s serial %d\n", auth.Origin(), auth.Serial())
	for _, r := range auth.DumpZone() {
		fmt.Fprintf(&b, "%s %s %d", r.Name, r.Type, r.TTL)
		for _, a := range r.Addrs {
			fmt.Fprintf(&b, " %s", a)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func sha256hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkDigests asserts that the streamed digests equal SHA-256 of the
// rendered texts, that the zone encoder reproduces the reference text, and
// that GET /v1/digests serves the same digests as the world state.
func checkDigests(t *testing.T, s *Server) {
	t.Helper()
	w := s.world
	var zone strings.Builder
	if err := writeZone(&zone, w.CDN.Authoritative()); err != nil {
		t.Fatal(err)
	}
	want := refZoneText(w.CDN.Authoritative())
	if zone.String() != want {
		t.Fatalf("zone text\n%s\ndiffers from the reference\n%s", zone.String(), want)
	}
	got := digestsOf(w)
	if exp := (api.Digests{
		RouteStateSHA256: sha256hex(w.Net.RouteStateDigest()),
		FIBSHA256:        sha256hex(w.Plane.FIBDigest()),
		DNSZoneSHA256:    sha256hex(want),
	}); got != exp {
		t.Fatalf("streamed digests %+v, hashed texts %+v", got, exp)
	}
	var served api.Digests
	do(t, s, "GET", "/v1/digests", nil, &served)
	if served != got || StateOf(w).Digests != got {
		t.Fatalf("GET /v1/digests %+v and StateOf disagree with digestsOf %+v", served, got)
	}
}

func TestDigestsMatchRenderedTexts(t *testing.T) {
	s := newTestServer(t, core.LoadShed{}, true)
	checkDigests(t, s)
	site := StateOf(s.world).Sites[0].Code
	for _, kind := range []string{"drain", "recover"} {
		cs, rec := postChangeSet(t, s, "/v1/changesets?execute=true", []api.Mutation{{Kind: kind, Site: site}})
		if rec.Code != http.StatusOK || !cs.Receipt.Pass {
			t.Fatalf("%s %s: %d %s", kind, site, rec.Code, rec.Body.String())
		}
		checkDigests(t, s)
	}
}

// TestStateDigestAllocBudget pins the streaming contract: fingerprinting
// route and FIB state costs a fixed number of allocations (one chunk per
// encoder) however many speakers the world has. Rendering the text
// first costs thousands of allocations at either size and grows with the
// world.
func TestStateDigestAllocBudget(t *testing.T) {
	const budget = 4
	var allocs []float64
	for _, mult := range []int{1, 4} {
		cfg := testConfig(41, false)
		cfg.Topology = topology.GenConfig{
			NumStub:       120 * mult,
			NumEyeball:    60 * mult,
			NumUniversity: 16 * mult,
			NumRegional:   24 * mult,
		}
		w, err := experiment.NewConvergedWorld(cfg, core.ReactiveAnycast{}, DefaultConvergeBound)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		stream := func() {
			h.Reset()
			w.Net.WriteRouteState(h)
			w.Plane.WriteFIB(h)
		}
		stream() // the first walk fills each speaker's sorted-prefix cache
		avg := testing.AllocsPerRun(5, stream)
		t.Logf("%d nodes: %.1f allocations per route+FIB digest", w.Topo.Len(), avg)
		if avg > budget {
			t.Fatalf("%d nodes: streaming route+FIB digests allocated %.1f times; budget %d", w.Topo.Len(), avg, budget)
		}
		allocs = append(allocs, avg)
	}
	if allocs[1] > allocs[0] {
		t.Fatalf("digest allocations grew with the world: %.1f → %.1f", allocs[0], allocs[1])
	}
}

// BenchmarkStateOf measures one full state derivation — site and load
// rows, the availability scan, and the three streamed digests — on the
// daemon's default world with demand attached.
func BenchmarkStateOf(b *testing.B) {
	cfg := experiment.DefaultWorldConfig(experiment.WithDefaultDemand())
	w, err := experiment.NewConvergedWorld(cfg, core.ReactiveAnycast{}, DefaultConvergeBound)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		StateOf(w)
	}
}

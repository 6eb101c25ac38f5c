package bgp_test

import (
	"fmt"
	"strings"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/canon"
	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
)

// TestRouteStateEncoderWorlds checks the streaming route-state encoder
// against the reference renderer on whole deployed worlds: every classic
// technique plus scoped prepending (per-neighbor origin overrides), each
// converged, with its first site failed, and after recovery; shards 2 and
// 8; and route-flap damping on.
func TestRouteStateEncoderWorlds(t *testing.T) {
	cfg := experiment.WorldConfig{
		Seed: 27,
		Topology: topology.GenConfig{
			NumStub:       120,
			NumEyeball:    60,
			NumUniversity: 16,
			NumRegional:   24,
		},
	}
	run := func(name string, cfg experiment.WorldConfig, tech core.Technique) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := experiment.NewConvergedWorld(cfg, tech, 3600)
			if err != nil {
				t.Fatal(err)
			}
			text := bgp.CheckRouteStateEncoder(t, w.Net)
			if len(text) <= canon.ChunkSize {
				t.Fatalf("route state is %d bytes, too small to span chunks", len(text))
			}
			if pp, ok := tech.(core.ProactivePrepending); ok && pp.Scoped && !strings.Contains(text, " nbr[") {
				t.Fatal("scoped prepending rendered no per-neighbor overrides")
			}
			site := w.CDN.Sites()[0].Code
			if _, err := w.CDN.FailSite(site); err != nil {
				t.Fatal(err)
			}
			w.Converge(3600)
			bgp.CheckRouteStateEncoder(t, w.Net)
			if _, err := w.CDN.RecoverSite(site); err != nil {
				t.Fatal(err)
			}
			w.Converge(3600)
			bgp.CheckRouteStateEncoder(t, w.Net)
		})
	}
	scoped, err := core.TechniqueByName("proactive-prepending-scoped")
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range append(core.AllTechniques(), scoped) {
		run(tech.Name(), cfg, tech)
	}
	for _, shards := range []int{2, 8} {
		c := cfg
		c.Shards = shards
		run(fmt.Sprintf("shards=%d", shards), c, core.ReactiveAnycast{})
	}
	damped := cfg
	damped.BGP = bgp.DefaultConfig()
	damped.BGP.Damping = bgp.DefaultDamping()
	run("damping", damped, core.ReactiveAnycast{})
}

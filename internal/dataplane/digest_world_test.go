package dataplane_test

import (
	"fmt"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
)

// TestFIBEncoderWorlds checks the streaming FIB encoder against the
// reference renderer on whole deployed worlds: every classic technique,
// each converged, with its first site failed, and after recovery; shards 2
// and 8; and route-flap damping on.
func TestFIBEncoderWorlds(t *testing.T) {
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
			dataplane.CheckFIBEncoder(t, w.Plane)
			site := w.CDN.Sites()[0].Code
			if _, err := w.CDN.FailSite(site); err != nil {
				t.Fatal(err)
			}
			w.Converge(3600)
			dataplane.CheckFIBEncoder(t, w.Plane)
			if _, err := w.CDN.RecoverSite(site); err != nil {
				t.Fatal(err)
			}
			w.Converge(3600)
			dataplane.CheckFIBEncoder(t, w.Plane)
		})
	}
	for _, tech := range core.AllTechniques() {
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

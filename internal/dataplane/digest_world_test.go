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

func worldConfig() experiment.WorldConfig {
	return experiment.WorldConfig{
		Seed: 27,
		Topology: topology.GenConfig{
			NumStub:       120,
			NumEyeball:    60,
			NumUniversity: 16,
			NumRegional:   24,
		},
	}
}

// TestFIBEncoderWorlds checks the flat FIB against reference tries rebuilt
// from the speakers' loc-RIBs on whole deployed worlds: digest text and
// forwarding from every node, for every classic technique at shards 1 and
// 8, each converged, with its first site failed, and after recovery; plus
// shards 2 and route-flap damping.
func TestFIBEncoderWorlds(t *testing.T) {
	check := func(t *testing.T, cfg experiment.WorldConfig, tech core.Technique) {
		t.Parallel()
		w, err := experiment.NewConvergedWorld(cfg, tech, 3600)
		if err != nil {
			t.Fatal(err)
		}
		dataplane.CheckFIB(t, w.Plane)
		site := w.CDN.Sites()[0].Code
		if _, err := w.CDN.FailSite(site); err != nil {
			t.Fatal(err)
		}
		w.Converge(3600)
		dataplane.CheckFIB(t, w.Plane)
		if _, err := w.CDN.RecoverSite(site); err != nil {
			t.Fatal(err)
		}
		w.Converge(3600)
		dataplane.CheckFIB(t, w.Plane)
	}
	cfg := worldConfig()
	for _, tech := range core.AllTechniques() {
		t.Run(tech.Name(), func(t *testing.T) {
			for _, shards := range []int{1, 8} {
				c := cfg
				c.Shards = shards
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { check(t, c, tech) })
			}
		})
	}
	for _, shards := range []int{2, 8} {
		c := cfg
		c.Shards = shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { check(t, c, core.ReactiveAnycast{}) })
	}
	damped := cfg
	damped.BGP = bgp.DefaultConfig()
	damped.BGP.Damping = bgp.DefaultDamping()
	t.Run("damping", func(t *testing.T) { check(t, damped, core.ReactiveAnycast{}) })
}

// TestFIBMidRunOriginationSharded is the flat FIB's shard-safety gate. A
// prefix's column is registered when its first best route appears, the one
// write to state all nodes share. Here that happens in the middle of a
// run: a reactive-anycast world fails a site, and while the withdrawal is
// still propagating through the shards, a control event originates the
// anycast prefix, never announced before, from every healthy site. The
// reactive announcements follow at the detection delay. At shards 8 the
// FIB must match the reference tries and the unsharded run byte for byte;
// under -race (make race, make shard-equivalence) the registration must
// show no data race with the shard goroutines forwarding updates.
func TestFIBMidRunOriginationSharded(t *testing.T) {
	run := func(shards int) string {
		cfg := worldConfig()
		cfg.Shards = shards
		w, err := experiment.NewConvergedWorld(cfg, core.ReactiveAnycast{}, 3600)
		if err != nil {
			t.Fatal(err)
		}
		failed := w.CDN.Sites()[0]
		if _, err := w.CDN.FailSite(failed.Code); err != nil {
			t.Fatal(err)
		}
		originated := false
		w.Sim.After(0.5, func() {
			if w.Sim.Pending() == 0 {
				t.Error("no BGP churn in flight at the mid-run origination")
			}
			for _, s := range w.CDN.HealthySites() {
				if err := w.Net.Originate(s.Node, core.AnycastPrefix, nil); err != nil {
					t.Error(err)
				}
			}
			originated = true
		})
		w.Converge(3600)
		if !originated {
			t.Fatal("mid-run origination never ran")
		}
		text := dataplane.CheckFIB(t, w.Plane)
		client := w.Targets()[0].ID
		res := w.Plane.Forward(client, core.AnycastServiceAddr)
		if !res.Delivered || res.Dest == failed.Node {
			t.Fatalf("anycast address from client %d: %+v, want delivery at a healthy site", client, res)
		}
		return text
	}
	if run(8) != run(1) {
		t.Fatal("FIB after a mid-run origination differs between shards 8 and 1")
	}
}

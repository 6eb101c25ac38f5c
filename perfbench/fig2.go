package main

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
)

// fig2-paper is the paper's Figure 2 matrix at paper scale, as
// `cdnsim -scale paper fig2` runs it: four techniques × the eight default
// sites, the 50K-target selection cap, 60 probed targets and 600 s of
// probing per run, Runner workers = nproc, no demand model.
//
// A run measures fig2Worlds worlds. The cold pass is each world's first
// matrix in the process, which deploys and converges one template world
// per technique. Warm passes repeat the worlds' matrices in turn, with the
// templates taken from the process-wide snapshot cache, for --seconds;
// op_p50_ms is the mean of the worlds' median warm matrix.

var fig2Techniques = []core.Technique{
	core.ProactiveSuperprefix{},
	core.ReactiveAnycast{},
	core.ProactivePrepending{Prepends: 3},
	core.Anycast{},
}

const (
	fig2ProbeTargets  = 60
	fig2ProbeDuration = 600
)

func fig2Config(b *bench) experiment.WorldConfig {
	return experiment.DefaultWorldConfig(
		experiment.WithSeed(b.seed),
		experiment.WithScale(experiment.PaperScale),
		experiment.WithWorkers(b.nproc),
		experiment.WithObs(b.reg),
	)
}

// genConfig is the topology generator configuration a world built from
// cfg uses.
func genConfig(cfg experiment.WorldConfig) topology.GenConfig {
	gc := cfg.Topology
	gc.Seed = cfg.Seed
	return gc
}

// fig2Worlds is how many worlds a run measures, each generated from its
// own seed derived from --seed. A matrix's time depends on the topology
// drawn; two worlds per run halve that part of the run-to-run spread.
const fig2Worlds = 2

// fig2World is one world of the run: its configuration, its target
// selection and the digest of its cold matrix.
type fig2World struct {
	cfg        experiment.WorldConfig
	sel        *experiment.Selection
	coldDigest string
}

func runFig2(b *bench) error {
	worlds := make([]*fig2World, fig2Worlds)
	for i := range worlds {
		cfg := fig2Config(b)
		// World 0 is the --seed world, the one the recorded values
		// belong to.
		cfg.Seed = b.seed + int64(i)*1_000_003
		// Warm the topology cache first so every set-up repetition does
		// the same work: one uncached generation plus a selection on
		// cached clones.
		if _, err := topology.Cached(genConfig(cfg)); err != nil {
			return err
		}
		worlds[i] = &fig2World{cfg: cfg}
	}
	rep := 0
	err := b.timeSetup(fig2SetupReps, func() error {
		w := worlds[rep%fig2Worlds]
		rep++
		var err error
		b.tr.do("topology.Generate", 0, func() { _, err = topology.Generate(genConfig(w.cfg)) })
		if err != nil {
			return err
		}
		b.tr.do("experiment.SelectTargets", 0, func() { w.sel, err = experiment.SelectTargets(w.cfg, experiment.PaperTargetsPerSite) })
		return err
	})
	if err != nil {
		return err
	}

	fc := experiment.DefaultFailoverConfig()
	fc.MaxTargets = fig2ProbeTargets
	fc.ProbeDuration = fig2ProbeDuration
	runner := worlds[0].cfg.Runner()
	// matrix runs one Figure 2 matrix and returns its wall time in ns.
	matrix := func(w *fig2World, req int) (pairs []experiment.CDFPair, wall float64, err error) {
		wall, err = b.probe.timed(func() error {
			var err error
			b.tr.do("experiment.Runner.Figure2", req, func() {
				pairs, err = runner.Figure2(w.cfg, w.sel, fig2Techniques, topology.DefaultSiteCodes, fc)
			})
			return err
		})
		return pairs, wall, err
	}

	before := counters(b.reg)
	mem := startMem()
	var coldWall float64
	coldMark := b.probe.mark()
	for i, w := range worlds {
		cold, wall, err := matrix(w, 0)
		if err := b.op(err); err != nil {
			return err
		}
		coldWall += wall
		if w.coldDigest, err = pairsDigest(cold); err != nil {
			return err
		}
		b.digests[fmt.Sprintf("fig2.world%d.cdfs_sha256", i)] = w.coldDigest
		for _, p := range cold {
			got := fmt.Sprintf("n=%d recon_p50=%.1f failover_p50=%.1f failover_p90=%.1f",
				p.Failover.N(), p.Reconnection.Median(), p.Failover.Median(), p.Failover.Percentile(90))
			fmt.Printf("fig2 world %d %-22s %s\n", i, p.Technique, got)
			if i == 0 {
				b.checkRecorded("fig2 "+p.Technique, got, expected.Fig2[p.Technique])
			}
		}
	}
	allocMB, gcs := mem.stop()
	afterCold := counters(b.reg)
	b.reportTime("cold_s", "s", coldWall/1e9, fig2Worlds, coldMark)

	var warm [fig2Worlds][]float64
	var afterWarm map[string]float64
	warmMark := b.probe.mark()
	warmStart := time.Now()
	for req := 1; req <= 2*fig2Worlds || time.Since(warmStart) < b.seconds; req++ {
		i := (req - 1) % fig2Worlds
		pairs, wall, err := matrix(worlds[i], req)
		if err := b.op(err); err != nil {
			return err
		}
		if afterWarm == nil {
			afterWarm = counters(b.reg)
		}
		warm[i] = append(warm[i], wall/1e6)
		dg, err := pairsDigest(pairs)
		if err != nil {
			return err
		}
		b.check(fmt.Sprintf("fig2 warm pass %d equals cold", req), dg == worlds[i].coldDigest,
			fmt.Sprintf("warm CDFs %s, cold %s", dg, worlds[i].coldDigest))
	}
	var p50s []float64
	n := 0
	for i, xs := range warm {
		p50s = append(p50s, median(xs))
		n += len(xs)
		fmt.Printf("fig2 world %d warm matrix p50 %.2f ms (n=%d)\n", i, median(xs), len(xs))
	}
	b.reportTime("op_p50_ms", "ms", mean(p50s), n, warmMark)

	if b.tr == nil {
		return nil
	}
	b.report("runtime.alloc_mb", allocMB, "MB", 1)
	b.report("runtime.gc_cycles", float64(gcs), "count", 1)
	b.report("dataplane.fib_lookups", delta(before, afterCold, "dataplane_fib_lookups_total"), "count", 1)
	b.report("netsim.events", delta(before, afterCold, "netsim_events_executed_total"), "count", 1)
	b.report("bgp.updates_sent", delta(before, afterCold, "bgp_updates_sent_total"), "count", 1)
	probe := delta(afterCold, afterWarm, "experiment_run_seconds.sum") - delta(afterCold, afterWarm, "experiment_materialize_seconds.sum")
	b.report("experiment.probe_s", probe, "s", int(delta(afterCold, afterWarm, "experiment_run_seconds.count")))
	hits := delta(before, afterWarm, "experiment_snapshot_cache_hits_total")
	builds := delta(before, afterWarm, "experiment_snapshot_builds_total")
	b.report("experiment.snapshot_hit_ratio", hits/(hits+builds), "ratio", int(hits+builds))
	b.report("topology.generate_s", median(b.tr.durationsMs("topology.Generate"))/1e3, "s", fig2SetupReps)
	b.report("experiment.select_targets_s", median(b.tr.durationsMs("experiment.SelectTargets"))/1e3, "s", fig2SetupReps)
	return fig2Replica(b, worlds[0].cfg, worlds[0].sel, fc)
}

// pairsDigest fingerprints a matrix's CDFs in the -json report form.
func pairsDigest(pairs []experiment.CDFPair) (string, error) {
	data, err := json.Marshal(experiment.ExportPairs(pairs, 120))
	if err != nil {
		return "", err
	}
	return sha256Hex(string(data)), nil
}

// fig2Replica replays the matrix's per-technique work sequentially from
// public calls, one span per layer call: the template (NewWorld, Deploy,
// Converge), its snapshot, one restore per failed site, and data-plane
// forwarding of each site's probed targets on the restored world. Run
// sequentially, each span's MemStats delta is its own.
func fig2Replica(b *bench, cfg experiment.WorldConfig, sel *experiment.Selection, fc experiment.FailoverConfig) error {
	cfg.Obs = nil
	var forwards int
	var last *experiment.World
	var events uint64
	for ti, tech := range fig2Techniques {
		req := 1000 + ti
		var w *experiment.World
		var err error
		b.tr.do("experiment.template", req, func() {
			b.tr.do("experiment.NewWorld", req, func() { w, err = experiment.NewWorld(cfg) })
			if err != nil {
				return
			}
			b.tr.do("core.Deploy", req, func() { err = w.CDN.Deploy(tech) })
			if err != nil {
				return
			}
			steps := w.Sim.Steps()
			b.tr.do("experiment.Converge", req, func() { w.Converge(fc.ConvergeTime) })
			events += w.Sim.Steps() - steps
		})
		if err != nil {
			return err
		}
		last = w
		var snap *experiment.WorldSnapshot
		b.tr.do("experiment.Snapshot", req, func() { snap, err = w.Snapshot() })
		if err != nil {
			return err
		}
		for _, code := range topology.DefaultSiteCodes {
			var rw *experiment.World
			b.tr.do("experiment.RestoreWorld", req, func() { rw, err = experiment.RestoreWorld(snap) })
			if err != nil {
				return err
			}
			site := rw.CDN.Site(code)
			st := sel.ForSite(code)
			if site == nil || st == nil {
				return fmt.Errorf("fig2 replica: no site or selection for %q", code)
			}
			targets := st.Proximate
			if len(targets) > fc.MaxTargets {
				targets = targets[:fc.MaxTargets]
			}
			dst := tech.SteerAddr(rw.CDN, site)
			b.tr.do("dataplane.Forward", req, func() { forwards += forwardAll(rw, targets, dst) })
		}
	}
	b.report("experiment.template_s", mean(b.tr.durationsMs("experiment.template"))/1e3, "s", len(fig2Techniques))
	b.report("experiment.converge_s", mean(b.tr.durationsMs("experiment.Converge"))/1e3, "s", len(fig2Techniques))
	b.report("core.deploy_ms", mean(b.tr.durationsMs("core.Deploy")), "ms", len(fig2Techniques))
	b.report("experiment.snapshot_ms", mean(b.tr.durationsMs("experiment.Snapshot")), "ms", len(fig2Techniques))
	reportRestores(b)
	b.report("dataplane.forward_ns", sum(b.tr.durationsMs("dataplane.Forward"))*1e6/float64(forwards), "ns", forwards)
	b.report("netsim.events_per_s", float64(events)/sum(b.tr.durationsMs("experiment.Converge"))*1e3, "1/s", int(events))
	b.report("collector.archive_records", float64(len(last.Collector.Records())), "count", 1)
	return nil
}

// forwardAll forwards one packet from every target toward dst a fixed
// number of times and returns the number of forwards.
func forwardAll(w *experiment.World, targets []topology.NodeID, dst netip.Addr) int {
	const rounds = 200
	n := 0
	for r := 0; r < rounds; r++ {
		for _, id := range targets {
			w.Plane.Forward(id, dst)
			n++
		}
	}
	return n
}

// reportRestores reports RestoreWorld latency (p50) and allocation.
func reportRestores(b *bench) {
	spans := b.tr.named("experiment.RestoreWorld")
	var allocs []float64
	for _, s := range spans {
		allocs = append(allocs, float64(s.AllocBytes)/1e6)
	}
	b.report("experiment.restore_ms", median(b.tr.durationsMs("experiment.RestoreWorld")), "ms", len(spans))
	b.report("experiment.restore_alloc_mb", mean(allocs), "MB", len(spans))
}

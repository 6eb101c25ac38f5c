package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/ctlplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
	"bestofboth/pkg/bestofboth/api"
)

// ctl-drain drives the control plane of `cdnsimd -demand` (reactive-anycast,
// scale 1, default demand model) in-process through
// ctlplane.Server.Handler(), with no sockets. One client runs a closed
// loop, since the server serializes every request on one mutex. Each
// cycle sends:
//
//   - a dry-run drain of the next site in rotation, never the site that is
//     currently drained;
//   - GET /v1/state;
//   - one executed step of a drain→recover pair on another site.
//
// A run drives ctlWorlds servers, one cycle at a time in turn. The cold
// pass is each world's first rotation (one cycle per site). Steady-state
// cycles then run for --seconds; op_p50_ms is their median cycle time, so
// it moves with any of the three request kinds.

// convergeBound is the virtual-seconds convergence deadline, the daemon's
// default.
const convergeBound = ctlplane.DefaultConvergeBound

func ctlConfig(b *bench) ctlplane.Config {
	return ctlplane.Config{
		World: experiment.DefaultWorldConfig(
			experiment.WithSeed(b.seed),
			experiment.WithDefaultDemand(),
		),
		Technique: core.ReactiveAnycast{},
		Obs:       b.reg,
	}
}

// ctlClient sends requests to the handler and keeps per-kind latencies.
type ctlClient struct {
	b   *bench
	h   http.Handler
	lat map[string][]float64 // milliseconds by request kind
}

// send serves one request and fails the operation unless it returns 200.
func (c *ctlClient) send(kind, method, path string, body any, req int) ([]byte, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(method, path, bytes.NewReader(data))
	start := time.Now()
	c.b.tr.do("ctlplane.Handler "+kind, req, func() { c.h.ServeHTTP(rec, hr) })
	c.lat[kind] = append(c.lat[kind], float64(time.Since(start))/1e6)
	var err error
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), c.b.op(err)
}

// changeSet posts one single-mutation ChangeSet.
func (c *ctlClient) changeSet(kind, mutation, site string, execute bool, req int) (*api.ChangeSet, error) {
	path := "/v1/changesets"
	if execute {
		path += "?execute=true"
	}
	body := struct {
		Mutations []api.Mutation `json:"mutations"`
	}{[]api.Mutation{{Kind: mutation, Site: site}}}
	data, err := c.send(kind, http.MethodPost, path, body, req)
	if err != nil {
		return nil, err
	}
	var cs api.ChangeSet
	if err := json.Unmarshal(data, &cs); err != nil {
		return nil, c.b.op(fmt.Errorf("decoding changeset: %w", err))
	}
	return &cs, nil
}

// dryRunSite is cycle c's dry-run target: the rotation, skipping the site
// the executed pair currently holds drained.
func dryRunSite(sites []string, c int, drained string) string {
	s := sites[(c+3)%len(sites)]
	if s == drained {
		s = sites[(c+4)%len(sites)]
	}
	return s
}

// ctlWorlds is how many servers a run drives, each on a world generated
// from its own seed derived from --seed. The cycle time of one world
// depends on its topology; cycling over three worlds averages that out of
// the run's figures.
const ctlWorlds = 3

// ctlWorld is one server of the run and the state of its cycle rotation.
type ctlWorld struct {
	cfg     ctlplane.Config
	srv     *ctlplane.Server
	c       *ctlClient
	sites   []string
	drained string // the site its executed pair holds drained, or ""
	n       int    // cycles sent so far
}

// cycle sends one cycle to the world; req numbers it across the run.
func (w *ctlWorld) cycle(b *bench, req int, first bool) error {
	n := w.n
	w.n++
	execSite := w.sites[(n/2)%len(w.sites)]
	dry := dryRunSite(w.sites, n, w.drained)
	cs, err := w.c.changeSet("dryrun", "drain", dry, false, req)
	if err != nil {
		return err
	}
	if first {
		d := cs.Predicted.Digests
		b.digests["ctl.first_dryrun.route_sha256"] = d.RouteStateSHA256
		b.digests["ctl.first_dryrun.fib_sha256"] = d.FIBSHA256
		b.digests["ctl.first_dryrun.dns_sha256"] = d.DNSZoneSHA256
		b.checkRecorded("ctl first dry-run route digest", d.RouteStateSHA256, expected.CtlRouteStateSHA256)
		b.checkRecorded("ctl first dry-run FIB digest", d.FIBSHA256, expected.CtlFIBSHA256)
		b.checkRecorded("ctl first dry-run DNS digest", d.DNSZoneSHA256, expected.CtlDNSZoneSHA256)
	}
	if _, err := w.c.send("state", http.MethodGet, "/v1/state", nil, req); err != nil {
		return err
	}
	mutation := "drain"
	if n%2 == 1 {
		mutation = "recover"
	}
	cs, err = w.c.changeSet("execute", mutation, execSite, true, req)
	if err != nil {
		return err
	}
	pass := cs.Receipt != nil && cs.Receipt.Pass
	b.check(fmt.Sprintf("ctl cycle %d %s %s receipt", req, mutation, execSite), pass,
		fmt.Sprintf("status %s, receipt %+v", cs.Status, cs.Receipt))
	if mutation == "drain" {
		w.drained = execSite
	} else {
		w.drained = ""
	}
	return nil
}

func runCtl(b *bench) error {
	lat := map[string][]float64{}
	worlds := make([]*ctlWorld, ctlWorlds)
	for i := range worlds {
		cfg := ctlConfig(b)
		// World 0 is the --seed world, the one the recorded values
		// belong to.
		cfg.World.Seed = b.seed + int64(i)*1_000_003
		// Warm the topology cache so every set-up repetition does the
		// same work; the first NewServer of a seed would otherwise also
		// generate.
		if _, err := topology.Cached(genConfig(cfg.World)); err != nil {
			return err
		}
		worlds[i] = &ctlWorld{cfg: cfg}
	}
	rep := 0
	err := b.timeSetup(ctlSetupReps, func() error {
		w := worlds[rep%ctlWorlds]
		rep++
		var err error
		b.tr.do("ctlplane.NewServer", 0, func() { w.srv, err = ctlplane.NewServer(w.cfg) })
		return err
	})
	if err != nil {
		return err
	}
	for _, w := range worlds {
		w.c = &ctlClient{b: b, h: w.srv.Handler(), lat: lat}
		for _, s := range w.srv.World().CDN.Sites() {
			w.sites = append(w.sites, s.Code)
		}
	}
	live := worlds[0].srv.World()
	sites := worlds[0].sites

	before := counters(b.reg)
	mem := startMem()
	archiveStart := len(live.Collector.Records())
	var coldWall float64
	coldMark := b.probe.mark()
	n := 0
	for _, w := range worlds {
		for range w.sites {
			wall, err := b.probe.timed(func() error { return w.cycle(b, n, n == 0) })
			if err != nil {
				return err
			}
			coldWall += wall
			n++
		}
	}
	allocMB, gcs := mem.stop()
	after := counters(b.reg)
	archiveCold := len(live.Collector.Records())
	b.reportTime("cold_s", "s", coldWall/1e9, n, coldMark)
	// The cold pass is fixed work, so the live state after it is a
	// comparable output; the state after the timed loop is not.
	b.digests["ctl.after_cold_pass.route_sha256"] = ctlplane.StateOf(live).Digests.RouteStateSHA256

	coldCount := map[string]int{}
	for k, v := range lat {
		coldCount[k] = len(v)
	}
	var cycles [ctlWorlds][]float64
	steadyMark := b.probe.mark()
	steadyStart := time.Now()
	for i := 0; i < 2*len(sites)+2 || time.Since(steadyStart) < b.seconds; i++ {
		w := worlds[i%ctlWorlds]
		wall, err := b.probe.timed(func() error { return w.cycle(b, n, false) })
		if err != nil {
			return err
		}
		cycles[i%ctlWorlds] = append(cycles[i%ctlWorlds], wall/1e6)
		n++
	}
	steady := time.Since(steadyStart)
	archiveEnd := len(live.Collector.Records())
	requests := 0
	for k := range lat {
		lat[k] = lat[k][coldCount[k]:]
		requests += len(lat[k])
	}
	dry := lat["dryrun"]
	// The worlds' cycle times sit at different levels, and the median of
	// their mixture jumps between them; the mean of the per-world medians
	// does not.
	var p50s []float64
	for i, xs := range cycles {
		p50s = append(p50s, median(xs))
		fmt.Printf("ctl world %d cycle p50 %.2f ms (n=%d)\n", i, median(xs), len(xs))
	}
	b.reportTime("op_p50_ms", "ms", mean(p50s), n-len(sites)*ctlWorlds, steadyMark)
	for _, kind := range []string{"dryrun", "execute", "state"} {
		xs := lat[kind]
		b.report("ctl."+kind+"_p50_ms", median(xs), "ms", len(xs))
		if len(xs) >= 100 {
			b.report("ctl."+kind+"_p90_ms", quantile(xs, 0.9), "ms", len(xs))
		} else {
			skip("ctl."+kind+"_p90_ms", fmt.Sprintf("n=%d < 100", len(xs)))
		}
	}
	b.report("ctl.requests_per_s", float64(requests)/steady.Seconds(), "1/s", requests)
	// Drift evidence: a live world's collector archive grows with every
	// executed ChangeSet and every dry-run copies it.
	half := len(dry) / 2
	fmt.Printf("drift ctl.dryrun_p50_ms first half %.2f (n=%d), second half %.2f (n=%d)\n",
		median(dry[:half]), half, median(dry[half:]), len(dry)-half)
	fmt.Printf("drift collector.archive_records of world 0: start %d, after cold pass %d, end %d (%d cycles)\n",
		archiveStart, archiveCold, archiveEnd, worlds[0].n)

	if b.tr == nil {
		return nil
	}
	b.report("runtime.alloc_mb", allocMB, "MB", 1)
	b.report("runtime.gc_cycles", float64(gcs), "count", 1)
	b.report("netsim.events", delta(before, after, "netsim_events_executed_total"), "count", 1)
	b.report("bgp.updates_sent", delta(before, after, "bgp_updates_sent_total"), "count", 1)
	b.report("dataplane.fib_lookups", delta(before, after, "dataplane_fib_lookups_total"), "count", 1)
	b.report("collector.archive_records", float64(archiveEnd), "count", 1)
	return ctlReplica(b, worlds[0].c, worlds[0].srv, sites, worlds[0].drained)
}

// ctlReplica sends one more dry-run per site and replays each from public
// calls on the live world — World.Snapshot → RestoreWorld →
// scenario.ApplyEvents → World.Converge → CDN.RefreshLoad →
// ctlplane.StateOf, plus the pre-state and the response encoding the
// handler also pays for — one span per call. The replica's predicted
// digests must equal the server's. The handler's wall time minus the
// replica's spans is the part of a dry-run the spans do not account for.
func ctlReplica(b *bench, c *ctlClient, srv *ctlplane.Server, sites []string, drained string) error {
	live := srv.World()
	var unaccounted []float64
	var events uint64
	for i, site := range sites {
		if site == drained {
			continue
		}
		req := 10000 + i
		cs, err := c.changeSet("dryrun-replayed", "drain", site, false, req)
		if err != nil {
			return err
		}
		handler := c.lat["dryrun-replayed"][len(c.lat["dryrun-replayed"])-1]
		var predicted api.WorldState
		id := b.tr.start("replica.dryrun", req)
		t0 := time.Now()
		var pre api.WorldState
		b.tr.do("ctlplane.StateOf", req, func() { pre = ctlplane.StateOf(live) })
		var snap *experiment.WorldSnapshot
		b.tr.do("experiment.Snapshot", req, func() { snap, err = live.Snapshot() })
		if err != nil {
			return err
		}
		var scratch *experiment.World
		b.tr.do("experiment.RestoreWorld", req, func() { scratch, err = experiment.RestoreWorld(snap) })
		if err != nil {
			return err
		}
		env := &scenario.Env{Sim: scratch.Sim, Topo: scratch.Topo, Net: scratch.Net, Plane: scratch.Plane, CDN: scratch.CDN}
		b.tr.do("scenario.ApplyEvents", req, func() {
			err = scenario.ApplyEvents(env, []scenario.Event{{Kind: scenario.KindDrain, Site: site}})
		})
		if err != nil {
			return err
		}
		steps := scratch.Sim.Steps()
		b.tr.do("experiment.Converge", req, func() { scratch.Converge(convergeBound) })
		events += scratch.Sim.Steps() - steps
		b.tr.do("core.RefreshLoad", req, func() { scratch.CDN.RefreshLoad() })
		b.tr.do("ctlplane.StateOf", req, func() { predicted = ctlplane.StateOf(scratch) })
		b.tr.do("json.MarshalIndent", req, func() {
			_, err = json.MarshalIndent(api.ChangeSet{Pre: pre, Predicted: predicted}, "", "  ")
		})
		if err != nil {
			return err
		}
		replica := float64(time.Since(t0)) / 1e6
		b.tr.end(id)
		unaccounted = append(unaccounted, handler-replica)
		fmt.Printf("replica dry-run %s: handler %.2f ms, replica spans %.2f ms, unaccounted %.2f ms\n",
			site, handler, replica, handler-replica)
		b.check("ctl replica digests equal the server's "+site, predicted.Digests == cs.Predicted.Digests,
			fmt.Sprintf("replica %+v, server %+v", predicted.Digests, cs.Predicted.Digests))

		var route string
		b.tr.do("bgp.RouteStateDigest", req, func() { route = scratch.Net.RouteStateDigest() })
		b.values["bgp.route_digest_mb"] = float64(len(route)) / 1e6
		b.tr.do("dataplane.FIBDigest", req, func() { scratch.Plane.FIBDigest() })
	}
	reps := len(unaccounted)
	b.report("experiment.snapshot_ms", median(b.tr.durationsMs("experiment.Snapshot")), "ms", reps)
	reportRestores(b)
	b.report("scenario.apply_ms", median(b.tr.durationsMs("scenario.ApplyEvents")), "ms", reps)
	converge := b.tr.durationsMs("experiment.Converge")
	b.report("experiment.converge_s", median(converge)/1e3, "s", reps)
	b.report("netsim.events_per_s", float64(events)/sum(converge)*1e3, "1/s", int(events))
	b.report("traffic.fold_ms", median(b.tr.durationsMs("core.RefreshLoad")), "ms", reps)
	b.report("ctlplane.stateof_ms", median(b.tr.durationsMs("ctlplane.StateOf")), "ms", 2*reps)
	b.report("bgp.route_digest_ms", median(b.tr.durationsMs("bgp.RouteStateDigest")), "ms", reps)
	b.report("bgp.route_digest_mb", b.values["bgp.route_digest_mb"], "MB", reps)
	b.report("dataplane.fib_digest_ms", median(b.tr.durationsMs("dataplane.FIBDigest")), "ms", reps)
	b.report("ctlplane.dryrun_unaccounted_ms", median(unaccounted), "ms", reps)
	replicaSelf := 0.0
	for _, s := range b.tr.named("replica.dryrun") {
		replicaSelf += float64(s.SelfNs) / 1e6
	}
	fmt.Printf("replica self time (between spans) %.3f ms over %d dry-runs\n", replicaSelf, reps)
	return nil
}

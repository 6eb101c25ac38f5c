// Package ctlplane implements the simulator's long-running control plane:
// an HTTP/JSON server that owns one live deployed world and exposes the
// versioned public API (pkg/bestofboth/api) to query its state and to
// mutate it exclusively through verified ChangeSets.
//
// A ChangeSet is an ordered list of intended mutations in the scenario
// event vocabulary. It is dry-run by default: the mutations are applied to
// a copy-on-write restore of the live world's snapshot and converged
// there, and the response carries the predicted post-state and deltas
// while the live world is untouched. Executing (?execute=true) applies the
// same mutations to the live world, re-derives the actual post-state, and
// attaches a verification receipt diffing predicted against actual field
// by field. Because the simulator is deterministic and the dry-run world
// is bit-identical to the live one, the receipt passes unless the
// execution path diverged from the prediction path — which is exactly the
// condition an operator must not trust.
package ctlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"bestofboth/internal/canon"
	"bestofboth/internal/dns"
	"bestofboth/internal/experiment"
	"bestofboth/pkg/bestofboth/api"
)

// hashOf fingerprints the canonical text an encoder streams, hashing it
// chunk by chunk as it is written; the text is never materialized.
func hashOf(encode func(io.Writer) error) string {
	h := sha256.New()
	_ = encode(h) // hash.Hash writes never return an error
	return hex.EncodeToString(h.Sum(nil))
}

// digestsOf fingerprints a world's routing, forwarding and DNS state.
func digestsOf(w *experiment.World) api.Digests {
	auth := w.CDN.Authoritative()
	return api.Digests{
		RouteStateSHA256: hashOf(w.Net.WriteRouteState),
		FIBSHA256:        hashOf(w.Plane.WriteFIB),
		DNSZoneSHA256:    hashOf(func(h io.Writer) error { return writeZone(h, auth) }),
	}
}

// StateOf derives the deterministic observable state of a deployed world:
// per-site lifecycle/announcement/load state, availability, and the
// routing/forwarding/DNS digests. Two bit-identical worlds yield equal
// WorldStates — the property ChangeSet verification rests on.
func StateOf(w *experiment.World) api.WorldState {
	cdn := w.CDN
	st := api.WorldState{
		VirtualTime: w.Sim.Now(),
		Technique:   cdn.Technique().Name(),
	}
	acct := cdn.Load()
	acctIndex := map[string]int{}
	if acct != nil {
		for i := 0; i < acct.NumSites(); i++ {
			acctIndex[acct.SiteCode(i)] = i
		}
	}
	for _, s := range cdn.Sites() {
		ss := api.SiteState{
			Code:          s.Code,
			Node:          w.Topo.Node(s.Node).Name,
			Prefix:        s.Prefix.String(),
			Addr:          s.Addr.String(),
			Failed:        cdn.Failed(s.Code),
			Announcements: cdn.AnnouncementsAt(s.Code),
		}
		if i, ok := acctIndex[s.Code]; ok {
			ss.Load = &api.SiteLoad{
				CapacityMicroRPS: acct.Capacity(i),
				OfferedMicroRPS:  acct.Offered(i),
				ServedMicroRPS:   acct.Served(i),
				ShedMicroRPS:     acct.Shed(i),
			}
		}
		st.Sites = append(st.Sites, ss)
	}
	st.Availability = availabilityOf(w)
	st.Digests = digestsOf(w)
	return st
}

// availabilityOf measures reachability over the full client-target
// population: a target is reachable iff its demand address currently lands
// at a live site. With a demand model attached, demand-weighted totals
// ride along.
func availabilityOf(w *experiment.World) api.Availability {
	targets := w.Targets()
	av := api.Availability{Targets: len(targets)}
	for _, n := range targets {
		if w.CDN.DemandSiteOf(n.ID) != nil {
			av.Reachable++
		}
	}
	if av.Targets == 0 {
		av.ReachableShare = 1
	} else {
		av.ReachableShare = float64(av.Reachable) / float64(av.Targets)
	}
	if acct := w.CDN.Load(); acct != nil {
		_, srv, shd := acct.Totals()
		av.DemandTotalMicroRPS = w.CDN.Demand().TotalRate()
		av.DemandServedMicroRPS = srv
		av.DemandShedMicroRPS = shd
		av.DemandUnservedMicroRPS = acct.Unserved()
	}
	return av
}

// writeZone streams the authoritative zone's canonical text — serial plus
// every record set in DumpZone's canonical order — to w.
func writeZone(w io.Writer, auth *dns.Authoritative) error {
	c := canon.NewWriter(w)
	c.B = append(c.B, "origin "...)
	c.B = append(c.B, auth.Origin()...)
	c.B = append(c.B, " serial "...)
	c.B = strconv.AppendUint(c.B, uint64(auth.Serial()), 10)
	c.B = append(c.B, '\n')
	for _, r := range auth.DumpZone() {
		c.B = append(c.B, r.Name...)
		c.B = append(c.B, ' ')
		c.B = append(c.B, r.Type...)
		c.B = append(c.B, ' ')
		c.B = strconv.AppendUint(c.B, uint64(r.TTL), 10)
		for _, a := range r.Addrs {
			c.B = append(c.B, ' ')
			c.B = a.AppendTo(c.B)
		}
		c.B = append(c.B, '\n')
		c.Spill()
	}
	return c.Close()
}

// zoneDumpOf converts the zone into its wire form.
func zoneDumpOf(auth *dns.Authoritative) api.ZoneDump {
	out := api.ZoneDump{
		APIVersion: api.Version,
		Origin:     auth.Origin(),
		Serial:     auth.Serial(),
	}
	for _, r := range auth.DumpZone() {
		rec := api.DNSRecord{Name: r.Name, Type: r.Type, TTL: r.TTL}
		for _, a := range r.Addrs {
			rec.Addrs = append(rec.Addrs, a.String())
		}
		out.Records = append(out.Records, rec)
	}
	return out
}

// catchmentsOf breaks the client-target population down by the site whose
// catchment currently holds each target's demand address.
func catchmentsOf(w *experiment.World) api.Catchments {
	out := api.Catchments{APIVersion: api.Version, Addr: "demand"}
	m := w.CDN.Demand()
	perSite := map[string]*api.SiteCatchment{}
	for _, s := range w.CDN.Sites() {
		sc := &api.SiteCatchment{Site: s.Code}
		perSite[s.Code] = sc
	}
	for _, n := range w.Targets() {
		var rate int64
		if m != nil {
			rate = m.Rate(n.ID)
		}
		site := w.CDN.DemandSiteOf(n.ID)
		if site == nil {
			out.Unreachable++
			out.UnreachableRPS += rate
			continue
		}
		sc := perSite[site.Code]
		sc.Targets++
		sc.DemandMicroRPS += rate
	}
	for _, s := range w.CDN.Sites() {
		out.Sites = append(out.Sites, *perSite[s.Code])
	}
	return out
}

// diffExempt lists the api.WorldState leaves diffStates deliberately does
// not compare, with the reason. Everything else must be diffed: a field
// added to the schema but not to diffStates silently weakens every
// verification receipt. TestDiffStatesCoversEverySchemaField enforces the
// contract at test time; cdnlint/wirestable enforces it at lint time.
var diffExempt = map[string]string{
	"SiteState.Node":   "immutable wiring, pinned by Code",
	"SiteState.Prefix": "immutable addressing plan, pinned by Code",
	"SiteState.Addr":   "immutable addressing plan, pinned by Code",
}

// diffStates re-diffs a predicted post-state against the actual one,
// producing the per-field divergence list of a verification receipt. Field
// paths address the WorldState JSON schema ("sites[atl].load.shedMicroRPS").
func diffStates(pred, act api.WorldState) []api.FieldDiff {
	var diffs []api.FieldDiff
	add := func(field string, p, a any) {
		ps, as := fmt.Sprintf("%v", p), fmt.Sprintf("%v", a)
		if ps != as {
			diffs = append(diffs, api.FieldDiff{Field: field, Predicted: ps, Actual: as})
		}
	}
	add("virtualTime", pred.VirtualTime, act.VirtualTime)
	add("technique", pred.Technique, act.Technique)
	add("availability.targets", pred.Availability.Targets, act.Availability.Targets)
	add("availability.reachable", pred.Availability.Reachable, act.Availability.Reachable)
	add("availability.reachableShare", pred.Availability.ReachableShare, act.Availability.ReachableShare)
	add("availability.demandTotalMicroRPS", pred.Availability.DemandTotalMicroRPS, act.Availability.DemandTotalMicroRPS)
	add("availability.demandServedMicroRPS", pred.Availability.DemandServedMicroRPS, act.Availability.DemandServedMicroRPS)
	add("availability.demandShedMicroRPS", pred.Availability.DemandShedMicroRPS, act.Availability.DemandShedMicroRPS)
	add("availability.demandUnservedMicroRPS", pred.Availability.DemandUnservedMicroRPS, act.Availability.DemandUnservedMicroRPS)
	add("digests.routeStateSHA256", pred.Digests.RouteStateSHA256, act.Digests.RouteStateSHA256)
	add("digests.fibSHA256", pred.Digests.FIBSHA256, act.Digests.FIBSHA256)
	add("digests.dnsZoneSHA256", pred.Digests.DNSZoneSHA256, act.Digests.DNSZoneSHA256)
	if len(pred.Sites) != len(act.Sites) {
		add("sites.length", len(pred.Sites), len(act.Sites))
		return diffs
	}
	for i := range pred.Sites {
		p, a := pred.Sites[i], act.Sites[i]
		prefix := fmt.Sprintf("sites[%s].", p.Code)
		add(prefix+"code", p.Code, a.Code)
		add(prefix+"failed", p.Failed, a.Failed)
		add(prefix+"announcements", p.Announcements, a.Announcements)
		switch {
		case p.Load == nil && a.Load == nil:
		case p.Load == nil || a.Load == nil:
			add(prefix+"load", p.Load != nil, a.Load != nil)
		default:
			add(prefix+"load.capacityMicroRPS", p.Load.CapacityMicroRPS, a.Load.CapacityMicroRPS)
			add(prefix+"load.offeredMicroRPS", p.Load.OfferedMicroRPS, a.Load.OfferedMicroRPS)
			add(prefix+"load.servedMicroRPS", p.Load.ServedMicroRPS, a.Load.ServedMicroRPS)
			add(prefix+"load.shedMicroRPS", p.Load.ShedMicroRPS, a.Load.ShedMicroRPS)
		}
	}
	return diffs
}

// deltaOf summarizes post − pre: the availability movement and per-site
// load/lifecycle changes a dry run reports as the predicted effect.
func deltaOf(pre, post api.WorldState) api.Delta {
	d := api.Delta{
		ReachableShare: post.Availability.ReachableShare - pre.Availability.ReachableShare,
		ServedMicroRPS: post.Availability.DemandServedMicroRPS - pre.Availability.DemandServedMicroRPS,
		ShedMicroRPS:   post.Availability.DemandShedMicroRPS - pre.Availability.DemandShedMicroRPS,
	}
	if len(pre.Sites) != len(post.Sites) {
		return d
	}
	for i := range pre.Sites {
		p, a := pre.Sites[i], post.Sites[i]
		sd := api.SiteDelta{Site: p.Code}
		switch {
		case !p.Failed && a.Failed:
			sd.Transition = "failed"
		case p.Failed && !a.Failed:
			sd.Transition = "recovered"
		}
		if p.Load != nil && a.Load != nil {
			sd.OfferedMicroRPS = a.Load.OfferedMicroRPS - p.Load.OfferedMicroRPS
			sd.ServedMicroRPS = a.Load.ServedMicroRPS - p.Load.ServedMicroRPS
			sd.ShedMicroRPS = a.Load.ShedMicroRPS - p.Load.ShedMicroRPS
		}
		if sd.Transition != "" || sd.OfferedMicroRPS != 0 || sd.ServedMicroRPS != 0 || sd.ShedMicroRPS != 0 {
			d.Sites = append(d.Sites, sd)
		}
	}
	return d
}

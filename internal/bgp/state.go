package bgp

import (
	"io"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"bestofboth/internal/canon"
	"bestofboth/internal/topology"
)

// RouteStateDigest renders the semantic routing state of the whole network
// as canonical text: per speaker, per prefix, the origination policy, the
// loc-RIB best route, and the non-empty adj-RIB-in/out slots. Pacing
// deadlines, damping penalties, delivery clocks, and message counters are
// deliberately excluded — two networks with equal digests make identical
// forwarding and export decisions even if they took different paced paths
// to get there. Regression tests use it to check that fail→recover cycles
// re-converge to exactly the never-failed state.
//
// It is WriteRouteState into a strings.Builder; callers that only need a
// fingerprint should stream WriteRouteState into a hash instead.
func (n *Network) RouteStateDigest() string {
	var b strings.Builder
	n.WriteRouteState(&b) // a strings.Builder never fails
	return b.String()
}

// WriteRouteState streams the canonical text RouteStateDigest returns to w,
// in canon.ChunkSize chunks, without materializing it. It returns the
// first write error.
func (n *Network) WriteRouteState(w io.Writer) error {
	c := canon.NewWriter(w)
	for _, sp := range n.speakers {
		for k, p := range sp.KnownPrefixes() {
			c.B = appendPrefixState(c.B, sp.node.Name, p, sp.readAt(k, p))
			c.Spill()
		}
	}
	return c.Close()
}

// appendPrefixState appends one speaker's block for prefix p: a header
// line, then one indented line per origin policy, best route, and
// non-empty adj-RIB-in/out slot. A prefix with none of those is an empty
// husk left by a full withdraw cycle and appends nothing.
func appendPrefixState(b []byte, name string, p netip.Prefix, st *prefixState) []byte {
	head := len(b)
	b = append(b, name...)
	b = append(b, ' ')
	b = p.AppendTo(b)
	b = append(b, '\n')
	body := len(b)
	if st.origin != nil {
		b = append(b, "  origin "...)
		b = appendOrigin(b, st.origin)
		b = append(b, '\n')
	}
	if st.best != nil {
		b = append(b, "  best sess="...)
		b = strconv.AppendInt(b, int64(st.best.learnedFrom), 10)
		b = append(b, ' ')
		b = appendRoute(b, st.best)
		b = append(b, '\n')
	}
	for sess, r := range st.in {
		if r != nil {
			b = append(b, "  in["...)
			b = strconv.AppendInt(b, int64(sess), 10)
			b = append(b, "] lp="...)
			b = strconv.AppendInt(b, int64(r.LocalPref), 10)
			b = append(b, ' ')
			b = appendRoute(b, r)
			b = append(b, '\n')
		}
	}
	for sess, r := range st.out {
		if r != nil {
			b = append(b, "  out["...)
			b = strconv.AppendInt(b, int64(sess), 10)
			b = append(b, "] "...)
			b = appendRoute(b, r)
			b = append(b, '\n')
		}
	}
	if len(b) == body {
		return b[:head]
	}
	return b
}

// appendRoute appends the attributes a route carries on the wire.
// OriginNode is deliberately omitted: it is simulator bookkeeping outside
// the decision process, and under anycast wire-identical routes from
// different originating sites leave different OriginNode breadcrumbs
// depending on arrival order.
//
//cdnlint:allocfree
func appendRoute(b []byte, r *Route) []byte {
	b = append(b, "path="...)
	b = canon.AppendUints(b, r.Path)
	b = append(b, " med="...)
	b = strconv.AppendInt(b, int64(r.MED), 10)
	b = append(b, " comm="...)
	return canon.AppendUints(b, r.Communities)
}

// appendOrigin appends an origination policy, per-neighbor overrides in
// neighbor-ID order.
func appendOrigin(b []byte, pol *OriginPolicy) []byte {
	b = append(b, "prepend="...)
	b = strconv.AppendInt(b, int64(pol.Prepend), 10)
	b = append(b, " med="...)
	b = strconv.AppendInt(b, int64(pol.MED), 10)
	b = append(b, " comm="...)
	b = canon.AppendUints(b, pol.Communities)
	if len(pol.PerNeighbor) == 0 {
		return b
	}
	ids := make([]topology.NodeID, 0, len(pol.PerNeighbor))
	for id := range pol.PerNeighbor {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		np := pol.PerNeighbor[id]
		b = append(b, " nbr["...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, "]={export="...)
		b = strconv.AppendBool(b, np.Export)
		b = append(b, " prepend="...)
		b = strconv.AppendInt(b, int64(np.Prepend), 10)
		b = append(b, '}')
	}
	return b
}

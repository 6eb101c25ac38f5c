// Package dataplane simulates packet forwarding over the FIBs produced by
// the BGP layer.
//
// Every node keeps a longest-prefix-match FIB that tracks its BGP loc-RIB
// in real time; the FIBs of one world share a single flat table (see
// Plane). Packets are forwarded hop by hop through these FIBs, so a
// packet in flight during route convergence experiences exactly the
// pathologies the paper measures: blackholes at routers whose best route was
// withdrawn, transient forwarding loops during path exploration, and
// deliveries to different CDN sites as catchments shift.
//
// The prober reproduces the paper's Verfploeter-style methodology (§5.2):
// echo requests are sent from a healthy site with a source address inside
// the prefix under study, and the replies are routed by the live FIBs to
// whichever site currently attracts that prefix, where a capture log
// records them.
package dataplane

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"bestofboth/internal/bgp"
	"bestofboth/internal/canon"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// MaxHops bounds forwarding walks, standing in for the IP TTL.
const MaxHops = 64

// maxMatches bounds the prefixes one address can match: at most one per
// prefix length, 0 through 128.
const maxMatches = 129

// fibEntry is one FIB slot: either local delivery or a next hop. A slot
// without set holds no route.
type fibEntry struct {
	set   bool
	local bool
	next  topology.NodeID
	delay float64 // one-way link delay to next, seconds
}

// DropReason explains why a packet was not delivered.
type DropReason int8

const (
	// DropNone means the packet was delivered.
	DropNone DropReason = iota
	// DropNoRoute means some router had no FIB entry for the destination.
	DropNoRoute
	// DropLoop means the packet exceeded MaxHops (forwarding loop).
	DropLoop
	// DropNodeDown means the packet reached a failed node.
	DropNodeDown
)

// String names the drop reason.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "delivered"
	case DropNoRoute:
		return "no-route"
	case DropLoop:
		return "loop"
	case DropNodeDown:
		return "node-down"
	default:
		return fmt.Sprintf("DropReason(%d)", int8(d))
	}
}

// ForwardResult describes one forwarding walk.
type ForwardResult struct {
	Delivered bool
	Reason    DropReason
	// Dest is the node that locally delivered the packet (valid when
	// Delivered).
	Dest topology.NodeID
	// Delay is the accumulated one-way latency in seconds over the hops
	// actually traversed.
	Delay float64
	// Path lists the nodes traversed, starting at the source. Populated
	// only by ForwardTrace; Forward leaves it nil so the hot probing paths
	// stay allocation-free.
	Path []topology.NodeID
}

// Plane is the data plane bound to a BGP network. Create it before any
// routes are originated so no FIB updates are missed.
//
// All nodes' FIBs live in one flat table. Each prefix gets a small integer
// id the first time a best route for it appears anywhere, and with it a
// column: a pointer-free []fibEntry indexed by node, which the garbage
// collector never scans. A best-route change is one map lookup plus one
// slot write, and a restore allocates per prefix, not per AS. Forwarding
// matches the destination against the prefixes once per walk, longest
// first, and each hop takes the first set slot at the current node, which
// is the longest-prefix match of that node's FIB.
//
// Shard safety: registering a prefix (growing ids, pfxs, cols and the two
// orders) is the only write to state that nodes share. A prefix's first
// best route always appears at an originator, inside bgp.Network.Originate
// or the bgp.Network.Restore replay, and both run on the control goroutine
// while every shard is parked at a barrier (netsim.ShardRunner bounds
// every round by the next control event). Every later best-route change
// writes only its own node's slot of an existing column, so shards running
// concurrently never write the same memory.
type Plane struct {
	net  *bgp.Network
	topo *topology.Topology
	sim  *netsim.Sim
	down []bool

	// ids maps every prefix seen (as BGP carries it) to its column;
	// pfxs[id] is the masked prefix and cols[id][node] the node's slot.
	ids  map[netip.Prefix]int32
	pfxs []netip.Prefix
	cols [][]fibEntry
	// byLen holds the ids in decreasing prefix length (longest-prefix
	// match); walk holds them in (address, length) order, IPv4 first
	// (WriteFIB).
	byLen []int32
	walk  []int32

	// static shortest-path delay cache per source node (seconds).
	staticDelay map[topology.NodeID][]float64

	// Metrics are nil until Instrument attaches a registry (nil-safe).
	m struct {
		lookups   *obs.Counter
		updates   *obs.Counter
		forwards  *obs.Counter
		delivered *obs.Counter
		dropped   *obs.Counter
	}
}

// New builds the data plane and subscribes to FIB updates.
func New(net *bgp.Network) *Plane {
	topo := net.Topology()
	p := &Plane{
		net:         net,
		topo:        topo,
		sim:         net.Sim(),
		down:        make([]bool, topo.Len()),
		ids:         make(map[netip.Prefix]int32),
		staticDelay: make(map[topology.NodeID][]float64),
	}
	net.OnBestChange(p.onBestChange)
	return p
}

// Instrument attaches forwarding metrics to r: FIB rebuild operations
// (best-route changes applied), per-hop FIB lookups, and forwarding walks
// split by outcome. Pure counting; never perturbs forwarding. A nil
// registry detaches.
func (p *Plane) Instrument(r *obs.Registry) {
	p.m.lookups = r.Counter("dataplane_fib_lookups_total")
	p.m.updates = r.Counter("dataplane_fib_updates_total")
	p.m.forwards = r.Counter("dataplane_forwards_total")
	p.m.delivered = r.Counter("dataplane_forwards_delivered_total")
	p.m.dropped = r.Counter("dataplane_forwards_dropped_total")
}

func (p *Plane) onBestChange(node topology.NodeID, prefix netip.Prefix, route *bgp.Route) {
	p.m.updates.Inc()
	id, ok := p.ids[prefix]
	if !ok {
		if route == nil || !prefix.IsValid() {
			return
		}
		id = p.register(prefix)
	}
	slot := &p.cols[id][node]
	if route == nil {
		*slot = fibEntry{}
		return
	}
	sess := route.LearnedFrom()
	if sess < 0 {
		*slot = fibEntry{set: true, local: true}
		return
	}
	adj := p.topo.Node(node).Adj[sess]
	*slot = fibEntry{set: true, next: adj.To, delay: adj.Delay}
}

// register gives prefix a column and returns its id. A prefix that masks
// to an already registered one shares its column: the FIB holds masked
// prefixes only.
//
// It runs only when a prefix's first best route appears, which is at an
// originator inside bgp.Network.Originate or the bgp.Network.Restore
// replay: on the control goroutine, between shard rounds (see Plane).
//
//cdnlint:barrieronly
func (p *Plane) register(prefix netip.Prefix) int32 {
	masked := prefix.Masked()
	if id, ok := p.ids[masked]; ok {
		p.ids[prefix] = id
		return id
	}
	id := int32(len(p.pfxs))
	p.ids[masked] = id
	p.ids[prefix] = id
	p.pfxs = append(p.pfxs, masked)
	p.cols = append(p.cols, make([]fibEntry, p.topo.Len()))
	i, _ := slices.BinarySearchFunc(p.byLen, masked.Bits(), func(e int32, bits int) int {
		return bits - p.pfxs[e].Bits() // decreasing length
	})
	p.byLen = slices.Insert(p.byLen, i, id)
	i, _ = slices.BinarySearchFunc(p.walk, masked, func(e int32, q netip.Prefix) int {
		return compareWalk(p.pfxs[e], q)
	})
	p.walk = slices.Insert(p.walk, i, id)
	return id
}

// compareWalk orders prefixes by address, IPv4 before IPv6, then by
// length: the pre-order of a binary trie. netip.Prefix.Compare orders by
// length first, so it cannot be used here.
func compareWalk(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// SetDown marks a node as failed (true) or healthy (false). Packets
// reaching a failed node are dropped; its FIB remains intact so the control
// plane model (explicit withdrawals) stays in charge of route removal,
// matching how the paper emulates failures by withdrawing announcements.
func (p *Plane) SetDown(node topology.NodeID, down bool) {
	p.down[node] = down
}

// IsDown reports the failure flag of a node.
func (p *Plane) IsDown(node topology.NodeID) bool { return p.down[node] }

// Forward walks a packet from src toward dst through the current FIBs.
// The walk does not record the traversed path (and therefore does not
// allocate); use ForwardTrace when the hop list matters.
func (p *Plane) Forward(src topology.NodeID, dst netip.Addr) ForwardResult {
	return p.forward(src, dst, nil)
}

// ForwardTrace is Forward with the traversed path recorded in the result.
func (p *Plane) ForwardTrace(src topology.NodeID, dst netip.Addr) ForwardResult {
	return p.forward(src, dst, make([]topology.NodeID, 0, 8))
}

func (p *Plane) forward(src topology.NodeID, dst netip.Addr, path []topology.NodeID) ForwardResult {
	p.m.forwards.Inc()
	record := path != nil
	res := ForwardResult{Path: path}
	// The prefixes covering dst, longest first: every hop's lookup is the
	// first of them with a route at that hop.
	var match [maxMatches]int32
	matched := p.matches(dst, &match)
	cur := src
	for hops := 0; hops <= MaxHops; hops++ {
		if record {
			res.Path = append(res.Path, cur)
		}
		if p.down[cur] {
			res.Reason = DropNodeDown
			p.m.dropped.Inc()
			return res
		}
		p.m.lookups.Inc()
		entry, ok := p.lookup(cur, matched)
		if !ok {
			res.Reason = DropNoRoute
			p.m.dropped.Inc()
			return res
		}
		if entry.local {
			res.Delivered = true
			res.Dest = cur
			p.m.delivered.Inc()
			return res
		}
		res.Delay += entry.delay
		cur = entry.next
	}
	res.Reason = DropLoop
	p.m.dropped.Inc()
	return res
}

// matches fills buf with the ids of the prefixes containing dst, longest
// first, and returns them. Like a trie, it ignores dst's zone and never
// matches across address families (an IPv4-mapped IPv6 address matches
// only IPv6 prefixes).
//
//cdnlint:allocfree
func (p *Plane) matches(dst netip.Addr, buf *[maxMatches]int32) []int32 {
	dst = dst.WithZone("")
	n := 0
	for _, id := range p.byLen {
		if p.pfxs[id].Contains(dst) {
			buf[n] = id
			n++
		}
	}
	return buf[:n]
}

// lookup returns node's entry for the longest of the matched prefixes it
// has a route for.
//
//cdnlint:allocfree
func (p *Plane) lookup(node topology.NodeID, matched []int32) (fibEntry, bool) {
	for _, id := range matched {
		if e := p.cols[id][node]; e.set {
			return e, true
		}
	}
	return fibEntry{}, false
}

// Catchment returns the site/origin node that currently attracts traffic
// from src toward addr, or ok=false if src cannot reach it.
func (p *Plane) Catchment(src topology.NodeID, addr netip.Addr) (topology.NodeID, bool) {
	res := p.Forward(src, addr)
	if !res.Delivered {
		return 0, false
	}
	return res.Dest, true
}

// StaticDelay returns the one-way shortest-path latency between two nodes
// over link delays, ignoring routing policy. It models the stable forward
// direction (CDN site → probe target), which the paper's failure
// experiments do not perturb.
func (p *Plane) StaticDelay(from, to topology.NodeID) float64 {
	d, ok := p.staticDelay[from]
	if !ok {
		d = p.dijkstra(from)
		p.staticDelay[from] = d
	}
	return d[to]
}

func (p *Plane) dijkstra(src topology.NodeID) []float64 {
	const inf = 1e18
	dist := make([]float64, p.topo.Len())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	// Simple binary-heap Dijkstra over the undirected latency graph.
	h := &delayHeap{items: []delayItem{{node: src, d: 0}}}
	for h.Len() > 0 {
		it := h.pop()
		if it.d > dist[it.node] {
			continue
		}
		for _, adj := range p.topo.Node(it.node).Adj {
			nd := it.d + adj.Delay
			if nd < dist[adj.To] {
				dist[adj.To] = nd
				h.push(delayItem{node: adj.To, d: nd})
			}
		}
	}
	return dist
}

type delayItem struct {
	node topology.NodeID
	d    float64
}

type delayHeap struct{ items []delayItem }

func (h *delayHeap) Len() int { return len(h.items) }
func (h *delayHeap) push(it delayItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].d <= h.items[i].d {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}
func (h *delayHeap) pop() delayItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < len(h.items) && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Hop is one step of a Traceroute: the node reached and the cumulative
// round-trip latency to it (assuming symmetric per-hop delays, as
// traceroute does).
type Hop struct {
	Node topology.NodeID
	RTT  float64
}

// Traceroute walks a packet like Forward but reports per-hop cumulative
// RTTs, the analogue of the measured paths Appendix C.1 reasons over.
func (p *Plane) Traceroute(src topology.NodeID, dst netip.Addr) ([]Hop, ForwardResult) {
	res := p.ForwardTrace(src, dst)
	hops := make([]Hop, 0, len(res.Path))
	var acc float64
	for i, node := range res.Path {
		if i > 0 {
			prev := p.topo.Node(res.Path[i-1])
			for _, adj := range prev.Adj {
				if adj.To == node {
					acc += adj.Delay
					break
				}
			}
		}
		hops = append(hops, Hop{Node: node, RTT: 2 * acc})
	}
	return hops, res
}

// FIBDigest renders every node's forwarding table as canonical text.
// Equal digests mean the two planes forward every packet identically;
// regression tests compare them across fail→recover round trips.
//
// It is WriteFIB into a strings.Builder; callers that only need a
// fingerprint should stream WriteFIB into a hash instead.
func (p *Plane) FIBDigest() string {
	var b strings.Builder
	p.WriteFIB(&b) // a strings.Builder never fails
	return b.String()
}

// WriteFIB streams the canonical text FIBDigest returns to w, in
// canon.ChunkSize chunks, without materializing it: per node with a
// non-empty FIB, a header line and one line per entry in (address,
// length) order, IPv4 first. It returns the first write error.
func (p *Plane) WriteFIB(w io.Writer) error {
	c := canon.NewWriter(w)
	for node := range p.topo.Len() {
		header := false
		for _, id := range p.walk {
			e := p.cols[id][node]
			if !e.set {
				continue
			}
			if !header {
				c.B = append(c.B, "node "...)
				c.B = strconv.AppendInt(c.B, int64(node), 10)
				c.B = append(c.B, '\n')
				header = true
			}
			c.B = appendFIBEntry(c.B, p.pfxs[id], e)
			c.Spill()
		}
	}
	return c.Close()
}

// appendFIBEntry appends one FIB line: the prefix, then "local" or the
// next-hop node.
//
//cdnlint:allocfree
func appendFIBEntry(b []byte, pfx netip.Prefix, e fibEntry) []byte {
	b = append(b, "  "...)
	b = pfx.AppendTo(b)
	if e.local {
		return append(b, " local\n"...)
	}
	b = append(b, " via "...)
	b = strconv.AppendInt(b, int64(e.next), 10)
	return append(b, '\n')
}

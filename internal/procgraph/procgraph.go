// Package procgraph builds the routing process graph of a network (paper
// Section 3.1): one vertex per routing-process RIB, plus a local RIB and the
// router RIB on every device, with edges wherever routes can flow —
// protocol adjacencies between routers, route redistribution inside a
// router, and route selection into the router RIB. Policies that govern an
// exchange are kept as annotations on the edges.
package procgraph

import (
	"fmt"
	"sort"
	"sync"

	"routinglens/internal/devmodel"
	"routinglens/internal/netaddr"
	"routinglens/internal/topology"
)

// NodeKind distinguishes the vertex types of the process graph.
type NodeKind int

// Node kinds. LocalRIB holds connected subnets and static routes (paper
// Figure 3); RouterRIB is the forwarding table fed by route selection;
// External represents a peer outside the configuration corpus.
const (
	ProcRIB NodeKind = iota
	LocalRIB
	RouterRIB
	External
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case ProcRIB:
		return "proc"
	case LocalRIB:
		return "local"
	case RouterRIB:
		return "router"
	case External:
		return "external"
	}
	return "?"
}

// Node is one vertex of the routing process graph.
type Node struct {
	Kind   NodeKind
	Device *devmodel.Device         // nil for External
	Proc   *devmodel.RoutingProcess // set for ProcRIB
	// For External nodes: the peer address and AS (AS 0 if unknown).
	ExtAddr netaddr.Addr
	ExtAS   uint32

	// Instance is filled in by the instance package: the routing instance
	// number this process RIB belongs to (0 before assignment).
	Instance int
}

// ID returns a unique, stable identifier for the node.
func (n *Node) ID() string {
	switch n.Kind {
	case ProcRIB:
		return n.Device.Hostname + "/" + n.Proc.Key()
	case LocalRIB:
		return n.Device.Hostname + "/local"
	case RouterRIB:
		return n.Device.Hostname + "/rib"
	case External:
		if n.ExtAS != 0 {
			return fmt.Sprintf("ext/AS%d/%s", n.ExtAS, n.ExtAddr)
		}
		return "ext/" + n.ExtAddr.String()
	}
	return "?"
}

// EdgeKind distinguishes the route-flow mechanisms.
type EdgeKind int

// Edge kinds. Adjacency edges connect processes on different routers;
// Redistribution edges connect processes within a router; Selection edges
// feed the router RIB.
const (
	Adjacency EdgeKind = iota
	Redistribution
	Selection
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case Adjacency:
		return "adjacency"
	case Redistribution:
		return "redistribution"
	case Selection:
		return "selection"
	}
	return "?"
}

// Edge is a directed route-flow edge. Protocol adjacencies are represented
// by a pair of directed edges (one each way), each carrying the import
// policy of its destination end.
type Edge struct {
	From, To *Node
	Kind     EdgeKind

	// EBGP marks a BGP adjacency between different AS numbers.
	EBGP bool
	// Link is the shared subnet for IGP adjacencies (zero for BGP).
	Link netaddr.Prefix

	// Policy annotations: names of route-maps or distribute-list ACLs that
	// filter routes flowing along this edge (evaluated at To).
	RouteMap        string
	DistributeLists []string
}

// Graph is the routing process graph of one network.
type Graph struct {
	Network  *devmodel.Network
	Topology *topology.Topology
	Nodes    []*Node
	Edges    []*Edge

	procNode   map[*devmodel.RoutingProcess]*Node
	localNode  map[*devmodel.Device]*Node
	routerNode map[*devmodel.Device]*Node
	extNode    map[string]*Node

	// Lazily built per-node edge indexes (the graph is immutable after
	// Build); idxOnce makes the first build safe under concurrent use.
	idxOnce sync.Once
	outIdx  map[*Node][]*Edge
	inIdx   map[*Node][]*Edge
}

// ProcNode returns the graph node of a routing process.
func (g *Graph) ProcNode(p *devmodel.RoutingProcess) *Node { return g.procNode[p] }

// LocalNode returns the local-RIB node of a device.
func (g *Graph) LocalNode(d *devmodel.Device) *Node { return g.localNode[d] }

// RouterNode returns the router-RIB node of a device.
func (g *Graph) RouterNode(d *devmodel.Device) *Node { return g.routerNode[d] }

// OutEdges returns the edges leaving n, in insertion order.
func (g *Graph) OutEdges(n *Node) []*Edge {
	g.buildIndex()
	return g.outIdx[n]
}

// InEdges returns the edges entering n, in insertion order.
func (g *Graph) InEdges(n *Node) []*Edge {
	g.buildIndex()
	return g.inIdx[n]
}

// buildIndex lazily constructs the per-node edge indexes. The graph is
// immutable after Build, so the index is computed once.
func (g *Graph) buildIndex() { g.idxOnce.Do(g.indexEdges) }

func (g *Graph) indexEdges() {
	g.outIdx = make(map[*Node][]*Edge, len(g.Nodes))
	g.inIdx = make(map[*Node][]*Edge, len(g.Nodes))
	for _, e := range g.Edges {
		g.outIdx[e.From] = append(g.outIdx[e.From], e)
		g.inIdx[e.To] = append(g.inIdx[e.To], e)
	}
}

// Build constructs the routing process graph from a network and its
// inferred topology.
func Build(n *devmodel.Network, top *topology.Topology) *Graph {
	g := &Graph{
		Network:    n,
		Topology:   top,
		procNode:   make(map[*devmodel.RoutingProcess]*Node),
		localNode:  make(map[*devmodel.Device]*Node),
		routerNode: make(map[*devmodel.Device]*Node),
		extNode:    make(map[string]*Node),
	}
	g.buildNodes()
	g.buildSelectionAndRedistribution()
	g.buildIGPAdjacencies()
	g.buildBGPAdjacencies()
	return g
}

func (g *Graph) buildNodes() {
	for _, d := range g.Network.Devices {
		local := &Node{Kind: LocalRIB, Device: d}
		router := &Node{Kind: RouterRIB, Device: d}
		g.localNode[d] = local
		g.routerNode[d] = router
		g.Nodes = append(g.Nodes, local, router)
		for _, p := range d.Processes {
			pn := &Node{Kind: ProcRIB, Device: d, Proc: p}
			g.procNode[p] = pn
			g.Nodes = append(g.Nodes, pn)
		}
	}
}

func (g *Graph) addEdge(e *Edge) { g.Edges = append(g.Edges, e) }

// buildSelectionAndRedistribution adds, per device, the selection edges
// into the router RIB and the redistribution edges between processes.
func (g *Graph) buildSelectionAndRedistribution() {
	for _, d := range g.Network.Devices {
		local := g.localNode[d]
		router := g.routerNode[d]
		g.addEdge(&Edge{From: local, To: router, Kind: Selection})
		for _, p := range d.Processes {
			pn := g.procNode[p]
			g.addEdge(&Edge{From: pn, To: router, Kind: Selection})
			for _, rd := range p.Redistributions {
				src := g.redistSource(d, rd)
				if src == nil {
					continue
				}
				g.addEdge(&Edge{From: src, To: pn, Kind: Redistribution, RouteMap: rd.RouteMap})
			}
			// Process-level distribute-lists annotate the selection edge
			// conservatively; per-adjacency policy is attached to adjacency
			// edges below.
		}
	}
}

// redistSource resolves the source node of a redistribution command on
// device d: the local RIB for connected/static, otherwise the matching
// routing process RIB.
func (g *Graph) redistSource(d *devmodel.Device, rd devmodel.Redistribution) *Node {
	switch rd.From {
	case devmodel.ProtoConnected, devmodel.ProtoStatic:
		return g.localNode[d]
	}
	// Prefer an exact process-id match, else the first process of the
	// protocol (IOS semantics when only one process exists).
	var first *Node
	for _, p := range d.Processes {
		if p.Protocol != rd.From {
			continue
		}
		if rd.FromID != "" && p.ID == rd.FromID {
			return g.procNode[p]
		}
		if first == nil {
			first = g.procNode[p]
		}
	}
	if rd.FromID == "" {
		return first
	}
	return first
}

// buildIGPAdjacencies connects same-protocol IGP processes across internal
// links where both processes cover their interface address and the
// interface is not passive.
func (g *Graph) buildIGPAdjacencies() {
	for _, link := range g.Topology.Links {
		if link.External || link.IsLoopback() {
			continue
		}
		eps := link.Endpoints
		for i := 0; i < len(eps); i++ {
			for j := i + 1; j < len(eps); j++ {
				a, b := eps[i], eps[j]
				if a.Device == b.Device {
					continue
				}
				g.connectIGP(a, b, link.Prefix)
			}
		}
	}
}

func (g *Graph) connectIGP(a, b topology.Endpoint, link netaddr.Prefix) {
	for _, pa := range a.Device.Processes {
		if !pa.Protocol.IsIGP() {
			continue
		}
		if !pa.CoversAddr(a.Addr) || pa.IsPassive(a.Intf.Name) {
			continue
		}
		for _, pb := range b.Device.Processes {
			if pb.Protocol != pa.Protocol {
				continue
			}
			if !pb.CoversAddr(b.Addr) || pb.IsPassive(b.Intf.Name) {
				continue
			}
			// EIGRP/IGRP adjacencies additionally require matching AS
			// numbers.
			if (pa.Protocol == devmodel.ProtoEIGRP || pa.Protocol == devmodel.ProtoIGRP) && pa.ID != pb.ID {
				continue
			}
			na, nb := g.procNode[pa], g.procNode[pb]
			g.addEdge(&Edge{From: na, To: nb, Kind: Adjacency, Link: link,
				DistributeLists: inboundDistLists(pb, b.Intf.Name)})
			g.addEdge(&Edge{From: nb, To: na, Kind: Adjacency, Link: link,
				DistributeLists: inboundDistLists(pa, a.Intf.Name)})
		}
	}
}

// inboundDistLists collects the distribute-list ACLs filtering routes
// arriving at proc, optionally scoped to the named interface.
func inboundDistLists(proc *devmodel.RoutingProcess, intf string) []string {
	var out []string
	for _, dl := range proc.DistributeLists {
		if dl.Direction != "in" {
			continue
		}
		if dl.Interface == "" || dl.Interface == intf {
			out = append(out, dl.ACL)
		}
	}
	return out
}

// buildBGPAdjacencies connects BGP processes along configured neighbor
// sessions. A neighbor address owned by another device with a BGP process
// of the expected AS yields an internal adjacency (IBGP or EBGP); an
// unowned address yields an edge to an External node.
func (g *Graph) buildBGPAdjacencies() {
	for _, d := range g.Network.Devices {
		for _, p := range d.ProcessesOf(devmodel.ProtoBGP) {
			pn := g.procNode[p]
			for _, nb := range p.Neighbors {
				if nb.IsPeerGroupName || nb.RemoteAS == 0 {
					continue
				}
				peerDev, owned := g.Topology.AddrOwner(nb.Addr)
				if owned && peerDev != d {
					peerProc := bgpProcWithAS(peerDev, nb.RemoteAS)
					if peerProc != nil {
						peerNode := g.procNode[peerProc]
						ebgp := peerProc.ASN != p.ASN
						g.addEdge(&Edge{From: peerNode, To: pn, Kind: Adjacency, EBGP: ebgp,
							RouteMap:        nb.RouteMapIn,
							DistributeLists: distList(nb.DistributeListIn)})
						// The reverse direction is added when the peer's own
						// neighbor statement is visited; if the peer has no
						// matching statement (half-configured session), add
						// a best-effort reverse edge.
						if !hasNeighborStmt(peerProc, d) {
							g.addEdge(&Edge{From: pn, To: peerNode, Kind: Adjacency, EBGP: ebgp})
						}
						continue
					}
				}
				if !owned {
					ext := g.externalNode(nb.Addr, nb.RemoteAS)
					g.addEdge(&Edge{From: ext, To: pn, Kind: Adjacency, EBGP: true,
						RouteMap:        nb.RouteMapIn,
						DistributeLists: distList(nb.DistributeListIn)})
					g.addEdge(&Edge{From: pn, To: ext, Kind: Adjacency, EBGP: true,
						RouteMap:        nb.RouteMapOut,
						DistributeLists: distList(nb.DistributeListOut)})
				}
			}
		}
	}
}

func distList(acl string) []string {
	if acl == "" {
		return nil
	}
	return []string{acl}
}

// bgpProcWithAS returns the BGP process of d with the given AS, or nil.
func bgpProcWithAS(d *devmodel.Device, as uint32) *devmodel.RoutingProcess {
	for _, p := range d.ProcessesOf(devmodel.ProtoBGP) {
		if p.ASN == as {
			return p
		}
	}
	return nil
}

// hasNeighborStmt reports whether proc has a neighbor statement whose
// address is owned by device d.
func hasNeighborStmt(proc *devmodel.RoutingProcess, d *devmodel.Device) bool {
	owned := make(map[netaddr.Addr]bool)
	for _, a := range d.OwnAddrs() {
		owned[a] = true
	}
	for _, nb := range proc.Neighbors {
		if !nb.IsPeerGroupName && owned[nb.Addr] {
			return true
		}
	}
	return false
}

func (g *Graph) externalNode(addr netaddr.Addr, as uint32) *Node {
	key := fmt.Sprintf("%s/%d", addr, as)
	if n, ok := g.extNode[key]; ok {
		return n
	}
	n := &Node{Kind: External, ExtAddr: addr, ExtAS: as}
	g.extNode[key] = n
	g.Nodes = append(g.Nodes, n)
	return n
}

// ExternalNodes returns the external peer nodes, sorted by ID.
func (g *Graph) ExternalNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == External {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ProcNodes returns all process-RIB nodes, in device/config order.
func (g *Graph) ProcNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == ProcRIB {
			out = append(out, n)
		}
	}
	return out
}

// IGPExternalAdjacent reports whether the IGP process covers a non-passive
// external-facing interface — the condition under which the paper counts an
// IGP instance as performing inter-domain routing (Section 5.2).
func (g *Graph) IGPExternalAdjacent(p *devmodel.RoutingProcess) bool {
	return len(g.IGPExternalInterfaces(p)) > 0
}

// IGPExternalInterfaces returns the names of the non-passive,
// external-facing interfaces covered by the IGP process. Each such
// interface is a potential adjacency with a router in another network.
func (g *Graph) IGPExternalInterfaces(p *devmodel.RoutingProcess) []string {
	if !p.Protocol.IsIGP() {
		return nil
	}
	n := g.procNode[p]
	if n == nil {
		return nil
	}
	d := n.Device
	var out []string
	for _, i := range d.Interfaces {
		if !i.HasAddr() || p.IsPassive(i.Name) {
			continue
		}
		covered := false
		for _, a := range i.Addrs {
			if p.CoversAddr(a.Addr) {
				covered = true
				break
			}
		}
		if covered && g.Topology.ExternalFacing(d, i.Name) {
			out = append(out, i.Name)
		}
	}
	return out
}

package whatif

import (
	"reflect"
	"testing"

	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/procgraph"
)

// adjacencyOfScan is the reference construction: one full scan of the
// process graph's edges per instance, keeping the adjacency edges whose
// endpoints both belong to the instance. adjacencyOf over the
// adjacencyEdges buckets must build the identical graph.
func adjacencyOfScan(g *procgraph.Graph, in *instance.Instance) *adjGraph {
	ag := &adjGraph{index: make(map[*devmodel.Device]int)}
	member := make(map[*procgraph.Node]bool, len(in.Nodes))
	for _, n := range in.Nodes {
		member[n] = true
		if _, ok := ag.index[n.Device]; !ok {
			ag.index[n.Device] = len(ag.nodes)
			ag.nodes = append(ag.nodes, n.Device)
		}
	}
	ag.edges = make([][]int, len(ag.nodes))
	ag.links = make([][]netaddr.Prefix, len(ag.nodes))
	type edgeKey struct {
		i, j int
		link netaddr.Prefix
	}
	seen := make(map[edgeKey]bool)
	for _, e := range g.Edges {
		if e.Kind != procgraph.Adjacency || !member[e.From] || !member[e.To] {
			continue
		}
		i, j := ag.index[e.From.Device], ag.index[e.To.Device]
		if i == j {
			continue
		}
		key := edgeKey{min(i, j), max(i, j), e.Link}
		if seen[key] {
			continue
		}
		seen[key] = true
		ag.edges[i] = append(ag.edges[i], j)
		ag.links[i] = append(ag.links[i], e.Link)
		ag.edges[j] = append(ag.edges[j], i)
		ag.links[j] = append(ag.links[j], e.Link)
	}
	return ag
}

// TestBucketedAdjacencyMatchesScan: on the case-study network and on a
// provider-tier network, every instance's adjacency graph built from the
// one-pass buckets equals the per-instance full-scan reference — same
// nodes, same neighbor order, same links.
func TestBucketedAdjacencyMatchesScan(t *testing.T) {
	for _, g := range []*netgen.Generated{
		netgen.GenerateCorpus(experimentsSeed).ByName("net5"),
		netgen.GenerateProvider(experimentsSeed, 600),
	} {
		n, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := modelOf(t, n)
		adj := adjacencyEdges(m)
		multi := 0
		for _, in := range m.Instances {
			got, want := adjacencyOf(in, adj[in]), adjacencyOfScan(m.Graph, in)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s instance %d: bucketed adjacency graph differs from the full scan", g.Name, in.ID)
			}
			if in.Size() > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Fatalf("%s: no multi-router instance compared", g.Name)
		}
	}
}

package main

import (
	"os"
	"runtime"
	"strings"

	"routinglens/internal/addrspace"
	"routinglens/internal/ciscoparse"
	"routinglens/internal/classify"
	"routinglens/internal/designdiff"
	"routinglens/internal/devmodel"
	"routinglens/internal/filters"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/procgraph"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/topology"
	"routinglens/internal/whatif"
)

// Span names of the layers a load runs, in the order the server runs
// them. Their self times, summed, are the attributed part of a reload
// round trip; whatif.analyze runs on the first what-if query instead.
var loadLayers = []string{
	"ciscoparse.parse",
	"topology.build", "procgraph.build", "instance.compute", "classify",
	"addrspace.discover", "filters.analyze",
	"designdiff.compare",
	"simroute.run", "reach.views",
}

// replayer re-runs, from the benchmark's own code, the layer calls a
// reload makes inside the server, one public function per span. Like
// the server's parse cache it keeps every router's parsed device and
// re-parses only the files an edit touched.
type replayer struct {
	c    *corpus
	tr   *tracer
	devs map[string]*devmodel.Device
	prev *instance.Model
}

// replayCounts are the per-replay figures that are counts or memory,
// not spans.
type replayCounts struct {
	pipelineAllocMiB float64
	simAllocMiB      float64
	simLiveMiB       float64
	rounds           int
	// ribCounted says procRIB and routerRIB were counted; counting
	// sorts every table, so a run counts them once.
	ribCounted         bool
	procRIB, routerRIB int
}

// replay runs the load layers over the corpus after hosts changed (all
// of them on a cold load) under a "replay" span and returns its ID.
// countRIB asks for the simulator's table sizes.
func (r *replayer) replay(hosts []string, countRIB bool) (int, replayCounts, error) {
	var rc replayCounts
	texts := make([]string, len(hosts))
	for i, h := range hosts {
		data, err := os.ReadFile(r.c.path(h))
		if err != nil {
			return 0, rc, err
		}
		texts[i] = string(data)
	}
	root := r.tr.begin("replay", 0)
	defer r.tr.end(root)
	var perr error
	r.tr.span("ciscoparse.parse", root, func() {
		for i, h := range hosts {
			res, err := ciscoparse.Parse(h+".cfg", strings.NewReader(texts[i]))
			if err != nil {
				perr = err
				return
			}
			r.devs[h] = res.Device
		}
	})
	if perr != nil {
		return 0, rc, perr
	}
	n := &devmodel.Network{Name: r.c.net}
	for _, h := range r.c.routers {
		n.Devices = append(n.Devices, r.devs[h])
	}

	var topo *topology.Topology
	var pg *procgraph.Graph
	var inst *instance.Model
	var space *addrspace.Structure
	a0 := totalAlloc()
	r.tr.span("topology.build", root, func() { topo = topology.Build(n) })
	r.tr.span("procgraph.build", root, func() { pg = procgraph.Build(n, topo) })
	r.tr.span("instance.compute", root, func() { inst = instance.Compute(pg) })
	r.tr.span("classify", root, func() { classify.ClassifyDesign(inst) })
	r.tr.span("addrspace.discover", root, func() {
		space = addrspace.Discover(addrspace.CollectSubnets(n), addrspace.Options{})
	})
	r.tr.span("filters.analyze", root, func() { filters.Analyze(n, topo) })
	rc.pipelineAllocMiB = mib(totalAlloc() - a0)
	// A reload compares against the serving design. A cold start has
	// none and compares nothing; its replay times the design against
	// itself, which the attribution leaves out.
	prev := r.prev
	if prev == nil {
		prev = inst
	}
	r.tr.span("designdiff.compare", root, func() { designdiff.Compare(prev, inst) })
	r.prev = inst

	runtime.GC()
	live0, a0 := heapAlloc(), totalAlloc()
	var sim *simroute.Sim
	r.tr.span("simroute.run", root, func() {
		sim = simroute.New(pg, []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}})
		rc.rounds = sim.Run()
	})
	rc.simAllocMiB = mib(totalAlloc() - a0)
	runtime.GC()
	rc.simLiveMiB = (float64(heapAlloc()) - float64(live0)) / (1 << 20)
	an := &reach.Analysis{Model: inst, Sim: sim, Space: space}
	r.tr.span("reach.views", root, func() {
		an.HasDefaultRoute()
		an.AdmittedExternalRoutes()
	})
	for _, d := range n.Devices {
		if !countRIB {
			break
		}
		rc.ribCounted = true
		rc.routerRIB += len(sim.RouterRoutes(d))
		for _, p := range d.Processes {
			rc.procRIB += len(sim.ProcRoutes(p))
		}
	}
	r.tr.span("whatif.analyze", root, func() { whatif.Analyze(inst) })
	return root, rc, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

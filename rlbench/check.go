package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"

	"routinglens/internal/core"
	"routinglens/internal/netaddr"
	"routinglens/internal/pathway"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/telemetry"
	"routinglens/internal/whatif"
)

// checkedPerKind is how many seeded pathway and reach?src=&dst= answers
// each run verifies; the paramless reach, what-if and summary answers
// are verified every run too.
const checkedPerKind = 30

// answer is one sampled response awaiting verification.
type answer struct {
	q    query
	body []byte
}

// The response bodies, as the serve handlers write them.
type pathwayBody struct {
	Router          string    `json:"router"`
	Feeders         []string  `json:"feeders"`
	Hops            []hopBody `json:"hops"`
	MaxDepth        int       `json:"max_depth"`
	PolicyPoints    int       `json:"policy_points"`
	ReachesExternal bool      `json:"reaches_external"`
	LocalOnly       bool      `json:"local_only"`
	Seq             int64     `json:"seq"`
}

type hopBody struct {
	Instance string `json:"instance"`
	Depth    int    `json:"depth"`
}

type reachBody struct {
	HasDefaultRoute  *bool    `json:"has_default_route"`
	AdmittedExternal []string `json:"admitted_external"`
	Src              string   `json:"src"`
	Dst              string   `json:"dst"`
	Reachable        *bool    `json:"reachable"`
	Seq              int64    `json:"seq"`
}

type whatifBody struct {
	RouterFailures int      `json:"router_failures"`
	LinkFailures   int      `json:"link_failures"`
	BridgeFailures int      `json:"bridge_failures"`
	StaticRisks    int      `json:"static_risks"`
	Critical       []string `json:"critical_routers"`
	Seq            int64    `json:"seq"`
}

type summaryBody struct {
	Network        string `json:"network"`
	Routers        int    `json:"routers"`
	Interfaces     int    `json:"interfaces"`
	Instances      int    `json:"instances"`
	Classification string `json:"classification"`
	Seq            int64  `json:"seq"`
}

// sampleAnswers fetches the seeded sample from the serving generation,
// which must be the one the writer swapped in last.
func (r *runner) sampleAnswers() []answer {
	rng := rand.New(rand.NewSource(r.seed ^ 0xc4ec))
	var qs []query
	for i := 0; i < checkedPerKind; i++ {
		qs = append(qs, r.keys.pathway(rng))
	}
	for i := 0; i < checkedPerKind; i++ {
		qs = append(qs, r.keys.block(rng))
	}
	for _, k := range []string{"reach", "whatif", "summary"} {
		qs = append(qs, query{kind: k, path: k})
	}
	want := r.lastSeq.Load()
	var out []answer
	for _, q := range qs {
		r.attempted.Add(1)
		rep := r.stk.local(q.path)
		seq, serr := seqOf(rep.body)
		switch {
		case rep.status != 200 || serr != nil:
			r.fail("check %s: status %d: %v", q.path, rep.status, serr)
		case seq != want:
			r.fail("check %s answered from generation %d, want the writer's last swap %d", q.path, seq, want)
		default:
			out = append(out, answer{q: q, body: rep.body})
			if r.tr != nil {
				// Readers draw few pathway keys among the reach pairs;
				// the sample gives every layer query its direct timing.
				r.direct(q, seq, 0, rep)
			}
		}
	}
	return out
}

// verify analyzes the configuration directory directly — the files the
// last generation was loaded from — and compares every sampled answer
// field by field with the library's own.
func (r *runner) verify(samples []answer) error {
	// The direct analysis records into its own collector and registry,
	// leaving the server's global state as the run left it.
	ctx := telemetry.WithCollector(context.Background(), telemetry.NewCollector())
	ctx = telemetry.WithRegistry(ctx, telemetry.NewRegistry())
	d, _, err := core.NewAnalyzer().AnalyzeDir(ctx, r.c.dir)
	if err != nil {
		return fmt.Errorf("direct analysis: %w", err)
	}
	ra := reach.Analyze(d.Instances, d.AddressSpace, []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}})
	var wa *whatif.Analysis
	for _, a := range samples {
		var got, want any
		switch a.q.kind {
		case "pathway":
			g, err := pathway.Compute(d.Instances, a.q.router)
			if err != nil {
				return err
			}
			w := pathwayBody{Router: g.Router.Hostname, Feeders: []string{}, MaxDepth: g.MaxDepth(),
				PolicyPoints: len(g.PolicyPoints()), ReachesExternal: g.ReachesExternal, LocalOnly: g.LocalOnly}
			for _, in := range g.Feeders {
				w.Feeders = append(w.Feeders, fmt.Sprintf("%d %s", in.ID, in.Label()))
			}
			w.Hops = []hopBody{}
			for _, h := range g.Hops {
				w.Hops = append(w.Hops, hopBody{h.Label(), h.Depth})
			}
			got, want = &pathwayBody{}, &w
		case "reach-block":
			ok := ra.BlockReachesBlock(a.q.src, a.q.dst)
			got, want = &reachBody{}, &reachBody{Src: a.q.src.String(), Dst: a.q.dst.String(), Reachable: &ok}
		case "reach":
			def := ra.HasDefaultRoute()
			w := reachBody{HasDefaultRoute: &def, AdmittedExternal: []string{}}
			for _, p := range ra.AdmittedExternalRoutes() {
				w.AdmittedExternal = append(w.AdmittedExternal, p.String())
			}
			got, want = &reachBody{}, &w
		case "whatif":
			if wa == nil {
				wa = whatif.Analyze(d.Instances)
			}
			w := whatifBody{RouterFailures: len(wa.RouterFailures), LinkFailures: len(wa.LinkFailures),
				BridgeFailures: len(wa.Bridges), StaticRisks: len(wa.StaticRisks), Critical: []string{}}
			for i, rf := range wa.RouterFailures {
				if i >= 100 { // the handler lists at most 100
					break
				}
				w.Critical = append(w.Critical, fmt.Sprintf("%s splits instance %d %s into %d pieces",
					rf.Router.Hostname, rf.Instance.ID, rf.Instance.Label(), rf.Pieces))
			}
			got, want = &whatifBody{}, &w
		case "summary":
			got, want = &summaryBody{}, &summaryBody{Network: d.Network.Name, Routers: len(d.Network.Devices),
				Interfaces: d.Topology.TotalInterfaces, Instances: len(d.Instances.Instances),
				Classification: d.Classification.String()}
		}
		if err := json.Unmarshal(a.body, got); err != nil {
			r.fail("check %s: %v", a.q.path, err)
			continue
		}
		zeroSeq(got)
		r.checks++
		if !reflect.DeepEqual(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			r.fail("check %s: served %s, direct %s", a.q.path, gj, wj)
		}
	}
	return nil
}

// zeroSeq clears the generation number, which the direct answer lacks.
func zeroSeq(v any) {
	switch b := v.(type) {
	case *pathwayBody:
		b.Seq = 0
	case *reachBody:
		b.Seq = 0
	case *whatifBody:
		b.Seq = 0
	case *summaryBody:
		b.Seq = 0
	}
}

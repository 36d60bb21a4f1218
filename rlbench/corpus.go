package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
)

// corpus is one generated network written out as a configuration
// directory, one <hostname>.cfg per router — the layout rlensd -dir
// serves.
type corpus struct {
	net     string // served network name: the directory's base name
	dir     string
	routers []string // hostnames, in file-name order like the analyzer's

	blocks []netaddr.Prefix // distinct interface subnets, sorted
}

// writeCorpus writes g's configurations under root/<g.Name> and records
// the keys the query mixes draw from.
func writeCorpus(root string, g *netgen.Generated) (*corpus, error) {
	c := &corpus{net: g.Name, dir: filepath.Join(root, g.Name)}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	seen := make(map[netaddr.Prefix]bool)
	for host, text := range g.Configs {
		if err := os.WriteFile(c.path(host), []byte(text), 0o644); err != nil {
			return nil, err
		}
		c.routers = append(c.routers, host)
		for _, p := range interfaceSubnets(text) {
			if !seen[p] {
				seen[p] = true
				c.blocks = append(c.blocks, p)
			}
		}
	}
	sort.Slice(c.routers, func(i, j int) bool { return c.routers[i]+".cfg" < c.routers[j]+".cfg" })
	sort.Slice(c.blocks, func(i, j int) bool { return c.blocks[i].Less(c.blocks[j]) })
	return c, nil
}

func (c *corpus) path(host string) string { return filepath.Join(c.dir, host+".cfg") }

// interfaceSubnets returns the subnets of every "ip address A M" line.
func interfaceSubnets(text string) []netaddr.Prefix {
	var out []netaddr.Prefix
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[0] != "ip" || f[1] != "address" {
			continue
		}
		a, err1 := netaddr.ParseAddr(f[2])
		m, err2 := netaddr.ParseMask(f[3])
		if err1 != nil || err2 != nil {
			continue
		}
		if p, err := netaddr.PrefixFromMask(a, m); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// editor applies the writer's one-file edits. Edits alternate between a
// fresh interface description (cosmetic: the design and every RIB stay
// the same) and a fresh /32 static route (the edited router's RIB
// changes). Every edit adds text the file never held before, so no
// configuration state ever repeats and nothing content-addressed can
// replay an earlier generation.
type editor struct {
	c    *corpus
	rng  *rand.Rand
	seed int64
	n    int
}

func newEditor(c *corpus, seed int64) *editor {
	return &editor{c: c, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), seed: seed}
}

// next edits one seeded router's file and returns its hostname.
func (e *editor) next() (string, error) {
	host := e.c.routers[e.rng.Intn(len(e.c.routers))]
	path := e.c.path(host)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	e.n++
	text := string(data)
	if e.n%2 == 1 {
		i := strings.Index(text, "\ninterface ")
		if i < 0 {
			return "", fmt.Errorf("%s has no interface to describe", path)
		}
		eol := strings.IndexByte(text[i+1:], '\n')
		if eol < 0 {
			return "", fmt.Errorf("%s ends inside an interface line", path)
		}
		at := i + 1 + eol + 1
		text = text[:at] + fmt.Sprintf(" description bench edit %d-%d\n", e.seed, e.n) + text[at:]
	} else {
		// 198.18.0.0/15 is the benchmarking range; no generated network
		// uses it, so every static is a new prefix.
		dst := netaddr.Addr(0xC6120000 + uint32(e.n))
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		text += fmt.Sprintf("ip route %s 255.255.255.255 Null0\n", dst)
	}
	return host, os.WriteFile(path, []byte(text), 0o644)
}

// query is one GET against a network's /v1 endpoints.
type query struct {
	kind string // pathway | reach-block | reach | whatif | summary
	path string // relative to /v1/nets/<net>/
	// router or src/dst identify the answer for direct computation.
	router   string
	src, dst netaddr.Prefix
}

// keySet is every distinct query key the network defines: one
// pathway?router= per router, one reach?src=&dst= per ordered pair of
// address blocks, and the paramless endpoints. No recorded operator
// traffic exists to weight the kinds by, so readers draw uniformly from
// the whole set; its sizes, which come from the network, decide the mix.
type keySet struct {
	c         *corpus
	paramless []string
}

func newKeySet(c *corpus, paramless []string) *keySet {
	return &keySet{c: c, paramless: paramless}
}

// size is the number of distinct keys.
func (k *keySet) size() int64 {
	b := int64(len(k.c.blocks))
	return int64(len(k.c.routers)) + b*b + int64(len(k.paramless))
}

// at returns key i of the set, 0 <= i < size().
func (k *keySet) at(i int64) query {
	n, b := int64(len(k.c.routers)), int64(len(k.c.blocks))
	switch {
	case i < n:
		r := k.c.routers[i]
		return query{kind: "pathway", path: "pathway?router=" + url.QueryEscape(r), router: r}
	case i < n+b*b:
		src, dst := k.c.blocks[(i-n)/b], k.c.blocks[(i-n)%b]
		return query{kind: "reach-block", path: "reach?src=" + src.String() + "&dst=" + dst.String(),
			src: src, dst: dst}
	}
	p := k.paramless[i-n-b*b]
	return query{kind: p, path: p}
}

// pick draws one key uniformly.
func (k *keySet) pick(rng *rand.Rand) query { return k.at(rng.Int63n(k.size())) }

// pathway and block pick one key uniformly among the pathway keys and
// among the reach-pair keys.
func (k *keySet) pathway(rng *rand.Rand) query { return k.at(rng.Int63n(int64(len(k.c.routers)))) }

func (k *keySet) block(rng *rand.Rand) query {
	b := int64(len(k.c.blocks))
	return k.at(int64(len(k.c.routers)) + rng.Int63n(b*b))
}

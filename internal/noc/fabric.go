package noc

import (
	"repro/internal/bus"
	"repro/internal/engine"
)

// Fabric instantiates the two networks (request and response) for a
// topology and owns every FIFO in them.
//
// The structure follows MemPool's hierarchy: every tile has one egress
// port per destination group (so traffic to different groups never blocks
// each other at the source — each tile of MemPool likewise owns a master
// port per group), a link arbiter per ordered group pair that merges the
// member tiles' traffic onto the inter-group link, and a per-group
// distribution router that fans traffic out to the destination tiles.
//
// Request path:
//
//	core egress → tile router → local bank FIFO                 (same tile)
//	            → tile egress[g] → link arbiter(g→h) → link
//	            → group-h router → tile ingress → tile router → bank
//
// The response network mirrors it from bank egress FIFOs to core response
// FIFOs. Each hop costs one cycle (timestamped FIFOs); every port moves at
// most one message per cycle; all FIFOs are bounded, so a hot spot
// backpressures into the tree (head-of-line blocking) — the congestion
// mechanism behind the paper's interference experiment — while traffic to
// other groups keeps flowing on its own ports.
type Fabric struct {
	Topo  Topology
	Clock *engine.Clock

	// CoreReq is the per-core request injection port (cores push).
	CoreReq []*engine.FIFO[bus.Request]
	// CoreResp is the per-core response delivery port (platform pops).
	CoreResp []*engine.FIFO[bus.Response]
	// BankReq is the per-bank request delivery port (banks pop).
	BankReq []*engine.FIFO[bus.Request]
	// BankResp is the per-bank response injection port (banks push).
	BankResp []*engine.FIFO[bus.Response]

	reqRouters  []*Router[bus.Request]
	respRouters []*Router[bus.Response]

	allReqFIFOs  []*engine.FIFO[bus.Request]
	allRespFIFOs []*engine.FIFO[bus.Response]

	// Dirty lists for activity-driven ticking: a router joins its set
	// when a message is pushed into one of its input stages (FIFO push
	// hooks wired at construction) and leaves once it ticks with every
	// input empty. TickActive walks only these routers; an idle fabric
	// costs nothing per cycle.
	reqActive   engine.ActiveSet
	respActive  engine.ActiveSet
	reqScratch  []int
	respScratch []int

	// shard, when non-nil, switches the dirty tracking to the
	// partition-parallel atomic bitsets (see Shard in shard.go).
	shard *fabricShard

	// rt holds the precomputed routing tables the per-router route
	// closures index instead of recomputing divisions per message.
	rt routeTables
}

// routeTables flattens every routing decision the fabric makes into
// table lookups indexed by bank or core ID. The route closures run once
// per message per hop, when it first shows at the head of a router input,
// and the topology arithmetic behind them (BankOfAddr, TileOfBank,
// GroupOfBank and the response-side mirrors) is all integer division. The
// tables cost a few bytes per bank/core and turn each decision into one or
// two indexed loads.
type routeTables struct {
	// Address → bank: word-interleaved. Power-of-two bank counts (every
	// built-in topology) use the mask; others keep the modulo.
	bankMask uint32
	bankMod  uint32
	usesMask bool

	tileOfBank     []int32  // owning tile, for the local/remote branch
	bankPortLocal  []uint16 // tile-router port when the bank is tile-local
	bankPortRemote []uint16 // tile-router egress port toward the bank's group
	bankPortGroup  []uint16 // group-router port toward the bank's tile

	tileOfCore     []int32
	corePortLocal  []uint16
	corePortRemote []uint16
	corePortGroup  []uint16
}

func buildRouteTables(topo Topology) routeTables {
	nBanks, nCores := topo.NumBanks(), topo.NumCores()
	rt := routeTables{
		bankMod:        uint32(nBanks),
		bankMask:       uint32(nBanks - 1),
		usesMask:       nBanks&(nBanks-1) == 0,
		tileOfBank:     make([]int32, nBanks),
		bankPortLocal:  make([]uint16, nBanks),
		bankPortRemote: make([]uint16, nBanks),
		bankPortGroup:  make([]uint16, nBanks),
		tileOfCore:     make([]int32, nCores),
		corePortLocal:  make([]uint16, nCores),
		corePortRemote: make([]uint16, nCores),
		corePortGroup:  make([]uint16, nCores),
	}
	for b := 0; b < nBanks; b++ {
		rt.tileOfBank[b] = int32(topo.TileOfBank(b))
		rt.bankPortLocal[b] = uint16(b % topo.BanksPerTile)
		rt.bankPortRemote[b] = uint16(topo.BanksPerTile + topo.GroupOfBank(b))
		rt.bankPortGroup[b] = uint16(topo.TileOfBank(b) % topo.TilesPerGroup)
	}
	for c := 0; c < nCores; c++ {
		rt.tileOfCore[c] = int32(topo.TileOfCore(c))
		rt.corePortLocal[c] = uint16(c % topo.CoresPerTile)
		rt.corePortRemote[c] = uint16(topo.CoresPerTile + topo.GroupOfCore(c))
		rt.corePortGroup[c] = uint16(topo.TileOfCore(c) % topo.TilesPerGroup)
	}
	return rt
}

// bankOf maps a byte address to its bank — Topology.BankOfAddr with the
// division strength-reduced to a mask for power-of-two bank counts.
func (rt *routeTables) bankOf(addr uint32) int {
	w := addr >> 2
	if rt.usesMask {
		return int(w & rt.bankMask)
	}
	return int(w % rt.bankMod)
}

// NewFabric builds the fabric. depth is the capacity of every FIFO stage;
// small depths (2–4) are realistic for SPM-class interconnects and are
// what produce hot-spot tree saturation.
func NewFabric(topo Topology, clock *engine.Clock, depth int) *Fabric {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if depth <= 0 {
		depth = 2
	}
	f := &Fabric{Topo: topo, Clock: clock, rt: buildRouteTables(topo)}
	rt := &f.rt

	nCores, nBanks := topo.NumCores(), topo.NumBanks()
	nTiles, nGroups := topo.NumTiles(), topo.NumGroups

	// Each network takes its FIFOs from one slab, laid out in build
	// order: the core ports, the bank ports, then per tile its egress
	// FIFOs (one per destination group) followed by its ingress FIFO from
	// its group router, then the links — inter-group for ordered pairs
	// g != h, intra-group merge links for g == h. The two networks share
	// the layout, so one index names a stage in both.
	tileBase := nCores + nBanks
	linkBase := tileBase + nTiles*(nGroups+1)
	egress := func(t, g int) int { return tileBase + t*(nGroups+1) + g }
	ingress := func(t int) int { return egress(t, nGroups) }
	link := func(g, h int) int { return linkBase + g*nGroups + h }
	reqs := engine.NewFIFOs[bus.Request](linkBase+nGroups*nGroups, depth, clock)
	resps := engine.NewFIFOs[bus.Response](len(reqs), depth, clock)
	f.allReqFIFOs, f.allRespFIFOs = reqs, resps
	f.CoreReq = reqs[:nCores:nCores]
	f.CoreResp = resps[:nCores:nCores]
	f.BankReq = reqs[nCores:tileBase:tileBase]
	f.BankResp = resps[nCores:tileBase:tileBase]

	// --- Request network ---

	// Tile routers: local cores + group ingress → local banks + per-group
	// egress.
	for t := 0; t < nTiles; t++ {
		t := t
		in := make([]*engine.FIFO[bus.Request], 0, topo.CoresPerTile+1)
		for c := 0; c < topo.CoresPerTile; c++ {
			in = append(in, f.CoreReq[t*topo.CoresPerTile+c])
		}
		in = append(in, reqs[ingress(t)])
		out := make([]*engine.FIFO[bus.Request], 0, topo.BanksPerTile+nGroups)
		for b := 0; b < topo.BanksPerTile; b++ {
			out = append(out, f.BankReq[t*topo.BanksPerTile+b])
		}
		out = append(out, reqs[egress(t, 0):ingress(t)]...)
		tt := int32(t)
		route := func(r *bus.Request) int {
			bank := rt.bankOf(r.Addr)
			if rt.tileOfBank[bank] == tt {
				return int(rt.bankPortLocal[bank])
			}
			return int(rt.bankPortRemote[bank])
		}
		f.reqRouters = append(f.reqRouters, NewRouter("tile-req", in, out, route))
	}

	// Link arbiters: merge the member tiles' per-destination egress FIFOs
	// onto the (g→h) link.
	for g := 0; g < nGroups; g++ {
		for h := 0; h < nGroups; h++ {
			in := make([]*engine.FIFO[bus.Request], 0, topo.TilesPerGroup)
			for ti := 0; ti < topo.TilesPerGroup; ti++ {
				in = append(in, reqs[egress(g*topo.TilesPerGroup+ti, h)])
			}
			out := []*engine.FIFO[bus.Request]{reqs[link(g, h)]}
			f.reqRouters = append(f.reqRouters,
				NewRouter("link-req", in, out, func(*bus.Request) int { return 0 }))
		}
	}

	// Group distribution routers: incoming links → member tile ingress.
	for g := 0; g < nGroups; g++ {
		g := g
		in := make([]*engine.FIFO[bus.Request], 0, nGroups)
		for h := 0; h < nGroups; h++ {
			in = append(in, reqs[link(h, g)])
		}
		out := make([]*engine.FIFO[bus.Request], 0, topo.TilesPerGroup)
		for ti := 0; ti < topo.TilesPerGroup; ti++ {
			out = append(out, reqs[ingress(g*topo.TilesPerGroup+ti)])
		}
		route := func(r *bus.Request) int {
			return int(rt.bankPortGroup[rt.bankOf(r.Addr)])
		}
		f.reqRouters = append(f.reqRouters, NewRouter("group-req", in, out, route))
	}

	// --- Response network (mirror, routed by destination core) ---

	for t := 0; t < nTiles; t++ {
		t := t
		var in []*engine.FIFO[bus.Response]
		for b := 0; b < topo.BanksPerTile; b++ {
			in = append(in, f.BankResp[t*topo.BanksPerTile+b])
		}
		in = append(in, resps[ingress(t)])
		var out []*engine.FIFO[bus.Response]
		for c := 0; c < topo.CoresPerTile; c++ {
			out = append(out, f.CoreResp[t*topo.CoresPerTile+c])
		}
		out = append(out, resps[egress(t, 0):ingress(t)]...)
		tt := int32(t)
		route := func(r *bus.Response) int {
			if rt.tileOfCore[r.Dst] == tt {
				return int(rt.corePortLocal[r.Dst])
			}
			return int(rt.corePortRemote[r.Dst])
		}
		f.respRouters = append(f.respRouters, NewRouter("tile-resp", in, out, route))
	}

	for g := 0; g < nGroups; g++ {
		for h := 0; h < nGroups; h++ {
			in := make([]*engine.FIFO[bus.Response], 0, topo.TilesPerGroup)
			for ti := 0; ti < topo.TilesPerGroup; ti++ {
				in = append(in, resps[egress(g*topo.TilesPerGroup+ti, h)])
			}
			out := []*engine.FIFO[bus.Response]{resps[link(g, h)]}
			f.respRouters = append(f.respRouters,
				NewRouter("link-resp", in, out, func(*bus.Response) int { return 0 }))
		}
	}

	for g := 0; g < nGroups; g++ {
		g := g
		var in []*engine.FIFO[bus.Response]
		for h := 0; h < nGroups; h++ {
			in = append(in, resps[link(h, g)])
		}
		var out []*engine.FIFO[bus.Response]
		for ti := 0; ti < topo.TilesPerGroup; ti++ {
			out = append(out, resps[ingress(g*topo.TilesPerGroup+ti)])
		}
		route := func(r *bus.Response) int {
			return int(rt.corePortGroup[r.Dst])
		}
		f.respRouters = append(f.respRouters, NewRouter("group-resp", in, out, route))
	}

	// Wire the wake conditions: pushing into any input stage of a router
	// marks that router dirty, next to the occupancy bit the same push
	// sets in the router (wired by NewRouter). The router leaves its
	// dirty list once a tick clears its last occupancy bit. Terminal
	// FIFOs (BankReq, CoreResp) are no router's input; their consumers
	// (banks, the platform's delivery loop) hang their own hooks off them.
	f.reqActive = engine.MakeActiveSet(len(f.reqRouters))
	for i, r := range f.reqRouters {
		i := i
		wake := func() { f.wakeReq(i) }
		for _, q := range r.in {
			q.OnPush(wake)
		}
	}
	f.respActive = engine.MakeActiveSet(len(f.respRouters))
	for i, r := range f.respRouters {
		i := i
		wake := func() { f.wakeResp(i) }
		for _, q := range r.in {
			q.OnPush(wake)
		}
	}

	return f
}

// Tick advances every router by one cycle — the dense reference loop,
// retained for differential testing against TickActive.
func (f *Fabric) Tick() {
	for _, r := range f.reqRouters {
		r.Tick()
	}
	for _, r := range f.respRouters {
		r.Tick()
	}
}

// TickActive advances only the routers with occupied input stages, in
// the same order the dense Tick would have reached them (request routers
// before response routers, ascending index). Idle routers' Ticks are
// no-ops, so the two loops are behaviorally identical; this one's cost
// is proportional to live traffic instead of fabric size. A router woken
// mid-pass by an upstream push stays dirty for the next cycle, exactly
// like the dense loop where its new entry is not yet visible.
//
// It returns the number of routers ticked, feeding the kernel's
// ticked-vs-skipped accounting (skipped = NumRouters() - ticked).
func (f *Fabric) TickActive() int {
	f.reqScratch = f.reqActive.AppendTo(f.reqScratch[:0])
	for _, i := range f.reqScratch {
		r := f.reqRouters[i]
		r.Tick()
		if !r.Busy() {
			f.reqActive.Remove(i)
		}
	}
	f.respScratch = f.respActive.AppendTo(f.respScratch[:0])
	for _, i := range f.respScratch {
		r := f.respRouters[i]
		r.Tick()
		if !r.Busy() {
			f.respActive.Remove(i)
		}
	}
	return len(f.reqScratch) + len(f.respScratch)
}

// NumRouters returns the total router count in both networks.
func (f *Fabric) NumRouters() int {
	return len(f.reqRouters) + len(f.respRouters)
}

// Busy reports whether any router is on a dirty list — conservatively,
// whether any message may still be moving inside the fabric. Terminal
// delivery ports (BankReq, CoreResp) are owned by their consumers and
// not counted here.
func (f *Fabric) Busy() bool {
	return !f.reqActive.Empty() || !f.respActive.Empty()
}

// Flits returns the cumulative number of hop traversals in both networks,
// the unit the energy model charges for interconnect activity.
func (f *Fabric) Flits() uint64 {
	var total uint64
	for _, r := range f.reqRouters {
		total += r.Forwards
	}
	for _, r := range f.respRouters {
		total += r.Forwards
	}
	return total
}

// InFlight returns the number of messages currently queued anywhere in the
// fabric, including injection and delivery ports.
func (f *Fabric) InFlight() int {
	total := 0
	for _, q := range f.allReqFIFOs {
		total += q.Len()
	}
	for _, q := range f.allRespFIFOs {
		total += q.Len()
	}
	return total
}

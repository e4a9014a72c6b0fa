package platform

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/noc"
)

// Partitioned parallel kernel: one simulated System sharded across OS
// threads. The tiles — with their cores, Qnodes and banks — are split
// into contiguous partitions; each partition runs the four phases of
// the scheduled Tick on its own shard, and the partitions synchronize
// at phase barriers so every FIFO keeps a single producer and a single
// consumer per step:
//
//	step A  timer wakes + core-slot ticks (phase 1), then snapshot of
//	        this partition's dirty routers — all writes partition-local
//	        except tile-router wakes, which are atomic bit-sets
//	barrier
//	step B  tile routers (fabric class 0) — may push cross-partition
//	        into link-arbiter FIFOs (each has exactly one producer tile)
//	barrier
//	step C  link arbiters (class 1) — push onto group-router links
//	barrier
//	step D  group routers (class 2), banks (phase 3), response delivery
//	        (phase 4) — mutually disjoint FIFO sets, all partition-local
//	barrier + leader: fold per-partition counts into Kernel, advance the
//	        clock, decide (continue / fast-forward / stop)
//
// Because every pair of components that share a FIFO is separated by a
// barrier (or partition-local), the state evolution is exactly the
// sequential Tick's for any partition count — the parity suite checks
// this per cycle across the policy registry. The sequential scheduled
// kernel remains the differential reference, exactly as TickDense was
// kept when the scheduler landed.

// partition is one shard of the simulated system: a contiguous tile
// range with its cores/Qnodes/banks, its own scheduler and active sets
// (all their producers are partition-local), scratch, and its share of
// the kernel counters.
type partition struct {
	id           int
	core0, core1 int // global core IDs [core0, core1)
	bank0, bank1 int // global bank IDs [bank0, bank1)

	slots *engine.Scheduler
	banks engine.ActiveSet
	deliv engine.ActiveSet

	slotScratch []int
	bankScratch []int
	delScratch  []int
	fsc         noc.PartScratch

	// stats is this partition's cumulative share of the kernel counters
	// (Ticks and the FF fields stay zero: whole-system events are
	// counted once, on System.Kernel, by the cycle leader). Published
	// per partition by PublishObs.
	stats   KernelStats
	nHalted int

	// Per-cycle ticked counts, folded into System.Kernel by the leader.
	cSlots, cRouters, cBanks, cDeliv, cParks int
}

// parKernel is the partitioned-kernel state hanging off a System.
type parKernel struct {
	nParts  int
	parts   []*partition
	barrier *engine.Barrier
	// cycleEnd is the end-of-cycle barrier action: fold, clock advance,
	// then the run driver's decide hook.
	cycleEnd func()
	decide   func()
	// fused marks the next cycle as a single-barrier fused cycle: when
	// every cross-tile router (link arbiters and group routers, both
	// networks) is clean at a cycle boundary, the next cycle provably
	// moves nothing through those classes, so the three intermediate
	// phase barriers are skipped (see parCycleWorker). Written only by
	// the cycle leader inside a barrier action (or with no workers
	// running), read by workers after the barrier releases them.
	fused bool
	// fusedCycles counts executed fused cycles. It lives here and not in
	// KernelStats because it describes the host-side execution strategy,
	// not the simulated machine: KernelStats must stay bit-identical
	// across kernels and partition counts.
	fusedCycles uint64
	ctl         struct {
		stop   bool
		halted bool
	}
}

// Partitions returns the effective partition count of this system's
// kernel (1 = sequential).
func (s *System) Partitions() int {
	if s.par == nil {
		return 1
	}
	return s.par.nParts
}

// FusedCycles returns how many cycles the partitioned kernel executed in
// single-barrier fused mode (0 on a sequential system). Purely a
// host-side execution statistic; simulated results are unaffected.
func (s *System) FusedCycles() uint64 {
	if s.par == nil {
		return 0
	}
	return s.par.fusedCycles
}

// initPartitions builds the partition shards and rewires the
// BankReq/CoreResp wake hooks to the owning partition's sets. Tiles are
// split into contiguous blocks; cores and banks follow their tile, so
// every same-tile data path (core→tile router→bank and back) stays
// inside one partition. Called only by New, before any cycle runs:
// every core starts runnable and nothing is in flight.
func (s *System) initPartitions(nParts int) {
	topo := s.Cfg.Topo
	nTiles := topo.NumTiles()
	cpt, bpt := topo.CoresPerTile, topo.BanksPerTile
	par := &parKernel{nParts: nParts, barrier: engine.NewBarrier(nParts)}
	tilePart := make([]int, nTiles)
	for pi := 0; pi < nParts; pi++ {
		t0, t1 := pi*nTiles/nParts, (pi+1)*nTiles/nParts
		p := &partition{
			id:    pi,
			core0: t0 * cpt, core1: t1 * cpt,
			bank0: t0 * bpt, bank1: t1 * bpt,
			slots: engine.NewScheduler(len(s.Cores)),
			banks: engine.MakeActiveSet(len(s.Banks)),
			deliv: engine.MakeActiveSet(len(s.Cores)),
		}
		for t := t0; t < t1; t++ {
			tilePart[t] = pi
		}
		for c := p.core0; c < p.core1; c++ {
			p.slots.Wake(c)
		}
		for b := p.bank0; b < p.bank1; b++ {
			b := b
			s.Fabric.BankReq[b].OnPush(func() { p.banks.Add(b) })
		}
		for c := p.core0; c < p.core1; c++ {
			c := c
			s.Fabric.CoreResp[c].OnPush(func() { p.deliv.Add(c) })
		}
		par.parts = append(par.parts, p)
	}
	s.Fabric.Shard(nParts, func(t int) int { return tilePart[t] })
	par.fused = s.Fabric.QuietCrossTile()
	par.cycleEnd = func() {
		s.parFold()
		par.decide()
	}
	s.lastPubParts = make([]KernelStats, nParts)
	s.par = par
}

// parStepA runs a partition's phase 1 — timer wakes and core-slot ticks
// (Qnode then Core, ascending global ID) — then snapshots the
// partition's dirty routers for the fabric steps. Everything it writes
// is partition-local except tile-router wakes from CoreReq pushes,
// which land in the atomic dirty set of the core's own tile.
func (s *System) parStepA(p *partition) {
	now := s.Clock.Now()
	p.cParks = 0
	p.slots.WakeDue(now, func(id int) { s.Cores[id].Unpark() })
	p.slotScratch = p.slots.AppendRunnable(p.slotScratch[:0])
	for _, i := range p.slotScratch {
		q, c := s.Qnodes[i], s.Cores[i]
		q.Tick()
		if !c.Parked() {
			c.Tick()
			if c.Quiescent() {
				s.parParkCore(p, i)
			}
		}
		if c.Parked() && !q.Busy() {
			p.slots.Sleep(i)
		}
	}
	p.cSlots = len(p.slotScratch)
	s.Fabric.SnapshotShard(p.id, &p.fsc)
}

// parParkCore is parkCore against the owning partition's scheduler and
// counters.
func (s *System) parParkCore(p *partition, i int) {
	c := s.Cores[i]
	p.stats.Parks++
	p.cParks++
	if c.State() == cpu.Halted {
		p.nHalted++
	}
	if wakeAt := c.Park(); wakeAt >= 0 {
		p.slots.WakeAt(i, wakeAt)
	}
}

// parStepD runs a partition's tail of the cycle: group routers, banks
// with queued work (phase 3), and response delivery (phase 4). The
// three touch disjoint FIFO sets — group routers push tile-ingress
// (consumed next cycle), banks pop BankReq and push BankResp, delivery
// pops CoreResp — and every one of those FIFOs is partition-local, so
// no barrier is needed between them.
func (s *System) parStepD(p *partition) {
	p.cRouters += s.Fabric.TickShardClass(&p.fsc, noc.ClassGroup)

	p.bankScratch = p.banks.AppendTo(p.bankScratch[:0])
	for _, b := range p.bankScratch {
		bank := s.Banks[b]
		bank.Tick()
		if bank.Idle() {
			p.banks.Remove(b)
		}
	}

	p.delScratch = p.deliv.AppendTo(p.delScratch[:0])
	for _, i := range p.delScratch {
		if resp, ok := s.Fabric.CoreResp[i].Pop(); ok {
			if out, ok := s.Qnodes[i].Deliver(resp); ok {
				s.Cores[i].Deliver(out) // unparks; executes next cycle
				p.slots.Wake(i)
			}
			if s.Qnodes[i].Busy() {
				p.slots.Wake(i) // protocol traffic to drain (wake-up bounce)
			}
		}
		if s.Fabric.CoreResp[i].Len() == 0 {
			p.deliv.Remove(i)
		}
	}
	p.cBanks = len(p.bankScratch)
	p.cDeliv = len(p.delScratch)
	p.stats.SlotsTicked += uint64(p.cSlots)
	p.stats.RoutersTicked += uint64(p.cRouters)
	p.stats.BanksTicked += uint64(p.cBanks)
	p.stats.DelivTicked += uint64(p.cDeliv)
}

// parFold is the leader's end-of-cycle bookkeeping: fold every
// partition's per-cycle counts into the aggregate Kernel stats (so
// System.Kernel reads exactly as under the sequential kernel) and
// advance the clock. Runs inside the final barrier with every partition
// quiesced.
func (s *System) parFold() {
	k := &s.Kernel
	k.Ticks++
	for _, p := range s.par.parts {
		k.SlotsTicked += uint64(p.cSlots)
		k.RoutersTicked += uint64(p.cRouters)
		k.BanksTicked += uint64(p.cBanks)
		k.DelivTicked += uint64(p.cDeliv)
		k.Parks += uint64(p.cParks)
	}
	s.Clock.Advance()
	par := s.par
	if par.fused {
		par.fusedCycles++
	}
	// Decide here — with every partition quiesced — whether the next
	// cycle can fuse its four barriers into this one.
	par.fused = s.Fabric.QuietCrossTile()
}

// parCycleWorker runs one partition's side of successive cycles until
// the leader's decide hook stops the run.
//
// A fused cycle runs the same steps with the three intermediate barriers
// elided. That is sound because the fuse decision (taken by the leader
// inside the previous end-of-cycle barrier) certifies every link arbiter
// and group router clean, and within the cycle nothing makes them tick:
//
//   - step A and the tile ticks write cross-partition only into
//     link-arbiter input FIFOs (single producer per FIFO: the owning
//     tile router) and the atomic dirty bitsets; the arbiters
//     themselves never tick, so no FIFO gains a second toucher.
//   - the ClassLink pass is skipped outright: under partition skew its
//     snapshot may contain an arbiter dirtied by another partition's
//     tile ticks *this* cycle, which the barriered schedule — like the
//     sequential kernel — would only tick next cycle.
//   - the ClassGroup pass in step D runs on a provably empty snapshot
//     (group routers are fed only by link arbiters, which did not tick).
//
// Every other FIFO pair is partition-local, and tile-ingress pushes from
// the previous cycle's group ticks were sealed by that cycle's end
// barrier — so the state evolution is bit-identical to the four-barrier
// schedule, which the parity suite checks on runs that mix both kinds
// of cycle.
func (s *System) parCycleWorker(p *partition) {
	par := s.par
	bar := par.barrier
	for {
		if par.fused {
			s.parStepA(p)
			p.cRouters = s.Fabric.TickShardClass(&p.fsc, noc.ClassTile)
			s.parStepD(p)
		} else {
			s.parStepA(p)
			bar.Wait(nil)
			p.cRouters = s.Fabric.TickShardClass(&p.fsc, noc.ClassTile)
			bar.Wait(nil)
			p.cRouters += s.Fabric.TickShardClass(&p.fsc, noc.ClassLink)
			bar.Wait(nil)
			s.parStepD(p)
		}
		bar.Wait(par.cycleEnd)
		if par.ctl.stop {
			return
		}
	}
}

// parTickInline executes exactly one partitioned cycle on the calling
// goroutine: the same step structure with the barriers degenerated to
// loop boundaries. Bit-identical to the worker version (the steps, not
// the threads, define the semantics), it backs Tick on a partitioned
// system so per-cycle drivers keep working.
func (s *System) parTickInline() {
	parts := s.par.parts
	for _, p := range parts {
		s.parStepA(p)
	}
	for _, p := range parts {
		p.cRouters = s.Fabric.TickShardClass(&p.fsc, noc.ClassTile)
	}
	for _, p := range parts {
		p.cRouters += s.Fabric.TickShardClass(&p.fsc, noc.ClassLink)
	}
	for _, p := range parts {
		s.parStepD(p)
	}
	s.parFold()
}

// parDrive executes cycles — partition 0 on the calling goroutine, one
// goroutine per further partition — until decide (run at every
// end-of-cycle barrier, with all partitions quiesced and the clock
// already advanced) sets ctl.stop. Workers live for one drive call, so
// a Run spawns its partitions once, not per cycle.
func (s *System) parDrive(decide func()) {
	par := s.par
	par.ctl.stop = false
	par.decide = decide
	var wg sync.WaitGroup
	for i := 1; i < par.nParts; i++ {
		p := par.parts[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.parCycleWorker(p)
		}()
	}
	s.parCycleWorker(par.parts[0])
	wg.Wait()
	par.decide = nil
}

// parBusy is busy() over the partitioned state: any runnable slot,
// queued bank work, pending delivery, or dirty router anywhere. Only
// called with the partitions quiesced (between cycles or drives).
func (s *System) parBusy() bool {
	for _, p := range s.par.parts {
		if p.slots.AnyRunnable() || !p.banks.Empty() || !p.deliv.Empty() {
			return true
		}
	}
	return s.Fabric.ShardBusy()
}

// parNextWake returns the earliest pending timed wake-up across all
// partition heaps.
func (s *System) parNextWake() (engine.Cycle, bool) {
	var best engine.Cycle
	ok := false
	for _, p := range s.par.parts {
		if w, o := p.slots.NextWake(); o && (!ok || w < best) {
			best, ok = w, true
		}
	}
	return best, ok
}

// parNHalted sums the partitions' halted-core counts.
func (s *System) parNHalted() int {
	n := 0
	for _, p := range s.par.parts {
		n += p.nHalted
	}
	return n
}

// runPar is Run on a partitioned system: the same
// tick/fast-forward/stop decisions as the sequential loop, taken by the
// cycle leader inside the end-of-cycle barrier.
func (s *System) runPar(n int) {
	target := s.Clock.Now() + engine.Cycle(n)
	if s.Clock.Now() >= target {
		return
	}
	// Pre-first-cycle decision, mirroring the head of the sequential
	// loop (taken single-threaded, before any worker exists).
	if !s.parBusy() {
		w, ok := s.parNextWake()
		if !ok || w >= target {
			s.fastForward(target)
			return
		}
		s.fastForward(w)
	}
	s.parDrive(func() {
		if s.Clock.Now() >= target {
			s.par.ctl.stop = true
			return
		}
		if s.parBusy() {
			return
		}
		w, ok := s.parNextWake()
		if !ok || w >= target {
			s.fastForward(target)
			s.par.ctl.stop = true
			return
		}
		s.fastForward(w)
	})
}

// runParUntilHalted is RunUntilHalted on a partitioned system,
// replicating the sequential loop's decision order exactly (halt check
// before the busy/fast-forward check, no final fast-forward when every
// core halted mid-budget).
func (s *System) runParUntilHalted(maxCycles int) bool {
	nCores := len(s.Cores)
	target := s.Clock.Now() + engine.Cycle(maxCycles)
	done := func() bool { return s.parNHalted() == nCores }
	if s.Clock.Now() >= target {
		s.fastForward(target)
		return done()
	}
	if done() {
		return true
	}
	if !s.parBusy() {
		w, ok := s.parNextWake()
		if !ok || w >= target {
			s.fastForward(target)
			return done()
		}
		s.fastForward(w)
	}
	s.parDrive(func() {
		ctl := &s.par.ctl
		if s.Clock.Now() >= target {
			s.fastForward(target)
			ctl.stop = true
			return
		}
		if done() {
			ctl.stop, ctl.halted = true, true
			return
		}
		if !s.parBusy() {
			w, ok := s.parNextWake()
			if !ok || w >= target {
				s.fastForward(target)
				ctl.stop = true
				return
			}
			s.fastForward(w)
		}
	})
	return s.par.ctl.halted || done()
}

// TickParallel advances the system by one cycle through the partitioned
// kernel's worker goroutines — the parallel counterpart of Tick, and
// the unit the parity suite compares against the sequential kernel
// cycle by cycle. On a sequential system (one partition) it is exactly
// Tick. Drive any one System exclusively through the scheduled entry
// points (Tick/TickParallel/Run/RunUntilHalted, which share state) or
// through TickDense, never a mix.
func (s *System) TickParallel() {
	if s.par == nil {
		s.Tick()
		return
	}
	s.parDrive(func() { s.par.ctl.stop = true })
}

// Package platform assembles the full MemPool-class system: cores behind
// Colibri Qnodes, the two-network fabric, and adapter-equipped SPM banks.
// It drives the cycle loop and takes activity snapshots for the
// throughput, fairness and energy evaluations.
package platform

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/colibri"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// DefaultWordsPerBank is the bank size a zero Config.WordsPerBank
// selects: the paper's 1 KiWord SPM banks.
const DefaultWordsPerBank = 1024

// Config describes a system instance.
type Config struct {
	Topo noc.Topology
	// FIFODepth is the capacity of every fabric FIFO stage (default 2).
	FIFODepth int
	// WordsPerBank sizes each bank's storage (default
	// DefaultWordsPerBank). A bank allocates its storage on its first
	// write; until then every word reads 0.
	WordsPerBank int
	// Policy names the registered bank synchronization policy (see
	// RegisterPolicy / PolicyNames). Empty selects PolicyPlain.
	Policy PolicyKind
	// PolicyParams configures the policy instance, with policy-defined
	// keys (e.g. ParamQueueCap for lrscwait, ParamColibriQ for colibri).
	// Unknown policy-specific keys are rejected by the policy's
	// Normalize.
	PolicyParams PolicyParams
	// Partitions selects the kernel's parallelism inside this one
	// simulated system: the tiles (with their cores, Qnodes and banks)
	// are split into that many contiguous shards, ticked by one OS
	// thread each and synchronized at deterministic phase barriers.
	// Results are bit-identical for every value — this is purely a
	// wall-clock knob. 0 uses the process-wide default (see
	// SetDefaultPartitions; initially 1, the sequential kernel),
	// PartitionsAuto gives one partition per processor, and any other
	// value is clamped to [1, number of tiles]. The count is fixed when
	// New builds the system.
	Partitions int
}

// PartitionsAuto gives one partition per processor the Go runtime may
// use: min(GOMAXPROCS, tiles), resolved once when New builds the system.
const PartitionsAuto = -1

// defaultPartitions is the Partitions value used when Config.Partitions
// is zero. CLIs set it once at startup from their -partitions flag, so
// every System a run builds — including those constructed deep inside
// scenario code — picks up the requested parallelism.
var defaultPartitions atomic.Int32

// SetDefaultPartitions sets the process-wide default partition count
// applied when Config.Partitions is zero: 1 (or 0) selects the
// sequential kernel, PartitionsAuto one partition per processor, larger
// values are clamped per topology.
func SetDefaultPartitions(p int) { defaultPartitions.Store(int32(p)) }

// resolvePartitions maps a Config.Partitions value to the effective
// partition count for a topology with the given tile count.
func resolvePartitions(p, tiles int) int {
	if p == 0 {
		p = int(defaultPartitions.Load())
	}
	if p == PartitionsAuto {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	if p > tiles {
		p = tiles
	}
	return p
}

// SmallConfig returns a 16-core configuration for tests.
func SmallConfig(policy PolicyKind) Config {
	return Config{Topo: noc.Small(), Policy: policy}
}

// ProgramFor supplies each core's program (and may return the same program
// for every core).
type ProgramFor func(core int) *isa.Program

// SameProgram runs one program on every core.
func SameProgram(p *isa.Program) ProgramFor {
	return func(int) *isa.Program { return p }
}

// fifoSink adapts an engine FIFO to colibri.ReqSink.
type fifoSink struct{ f *engine.FIFO[bus.Request] }

func (s fifoSink) TryPush(r bus.Request) bool { return s.f.Push(r) }

// System is a fully wired simulation instance.
//
// The cycle loop is activity-driven: Tick walks only the components that
// can make progress this cycle (see the scheduler fields below), and Run
// / RunUntilHalted fast-forward the clock across globally idle spans.
// Sleeping cores therefore cost nothing per cycle — the simulator-side
// mirror of the paper's polling-free LRwait/Mwait design. TickDense is
// the retained dense reference loop for differential testing.
type System struct {
	Cfg   Config
	Clock engine.Clock
	// Policy is the resolved, fully configured policy instance the
	// banks' adapters were built from.
	Policy Policy
	Fabric *noc.Fabric
	Banks  []*mem.Bank
	Cores  []*cpu.Core
	Qnodes []*colibri.Qnode

	// slots schedules the per-core front end (Qnode i + Core i as one
	// slot, ticked in that order like the dense loop); its wake heap
	// carries PAUSE countdown expiries. banks and deliv track banks with
	// queued work and cores with undelivered responses; the fabric keeps
	// its own router dirty lists. Scratch slices make steady-state
	// iteration allocation-free.
	slots       *engine.Scheduler
	banks       engine.ActiveSet
	deliv       engine.ActiveSet
	slotScratch []int
	bankScratch []int
	delScratch  []int
	// nHalted counts cores that have executed HALT, so RunUntilHalted's
	// completion check is O(1) instead of an every-cycle core walk.
	nHalted int
	// nRouters caches Fabric.NumRouters() for Kernel accounting.
	nRouters int

	// Kernel counts what the activity-driven scheduler did — components
	// ticked per phase, parks, fast-forward spans — with plain per-System
	// increments (a few integer adds per Tick, using lengths the loop
	// already computed). PublishObs pushes deltas into an obs.Registry on
	// the cold path; per-Tick atomics would dwarf an idle cycle's cost.
	// Under the partitioned kernel the cycle leader folds per-partition
	// counts here at every end-of-cycle barrier, so the aggregate is
	// identical to what the sequential kernel would have counted.
	Kernel KernelStats
	// par is the partitioned-kernel state when the resolved
	// Config.Partitions exceeds one; nil for the sequential kernel. See
	// parallel.go.
	par *parKernel
	// pubMu serializes PublishObs (its delta bookkeeping in lastPub must
	// not interleave when concurrent runs publish the same System, or
	// different Systems publish into one registry from racing sweeps).
	pubMu sync.Mutex
	// lastPub is the totals already published by PublishObs.
	lastPub obsTotals
	// lastPubParts mirrors lastPub per partition.
	lastPubParts []KernelStats
}

// KernelStats is the scheduler's own activity accounting, per executed
// Tick (fast-forwarded cycles never reach Tick and are counted in
// FFSpans/FFCyclesSaved instead). Skipped counts are derived at publish
// time as Ticks×population − ticked, keeping the hot path to one add
// per phase.
type KernelStats struct {
	// Ticks counts executed scheduled Tick calls.
	Ticks uint64
	// SlotsTicked counts core-slot (Qnode+Core) visits.
	SlotsTicked uint64
	// RoutersTicked counts dirty-router visits across both networks.
	RoutersTicked uint64
	// BanksTicked counts visits to banks with queued work.
	BanksTicked uint64
	// DelivTicked counts response-delivery visits.
	DelivTicked uint64
	// Parks counts cores taken off the schedule (quiescent or in PAUSE).
	Parks uint64
	// FFSpans and FFCyclesSaved count globally idle spans the clock
	// jumped across instead of simulating, and the cycles so skipped.
	FFSpans       uint64
	FFCyclesSaved uint64
}

// New builds a system with every core running progFor(core). The
// configured policy is resolved through the registry; an unregistered
// name or invalid parameter set panics, like an invalid topology.
func New(cfg Config, progFor ProgramFor) *System {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = 2
	}
	if cfg.WordsPerBank <= 0 {
		cfg.WordsPerBank = DefaultWordsPerBank
	}
	pol, err := ResolvePolicy(cfg.Policy, cfg.PolicyParams, cfg.Topo)
	if err != nil {
		panic(err)
	}
	s := &System{Cfg: cfg, Policy: pol}
	topo := cfg.Topo
	s.Fabric = noc.NewFabric(topo, &s.Clock, cfg.FIFODepth)
	s.nRouters = s.Fabric.NumRouters()

	nBanks := topo.NumBanks()
	nCores := topo.NumCores()
	s.Banks = make([]*mem.Bank, nBanks)
	for b := 0; b < nBanks; b++ {
		adapter := pol.NewAdapter(BankContext{
			BankID: b, NumBanks: nBanks, NumCores: nCores, Topo: topo,
		})
		s.Banks[b] = mem.NewBank(b, nBanks, cfg.WordsPerBank, adapter,
			s.Fabric.BankReq[b], s.Fabric.BankResp[b])
	}

	s.Cores = make([]*cpu.Core, nCores)
	s.Qnodes = make([]*colibri.Qnode, nCores)
	for c := 0; c < nCores; c++ {
		s.Qnodes[c] = colibri.NewQnode(c, fifoSink{s.Fabric.CoreReq[c]})
		prog := progFor(c)
		s.Cores[c] = cpu.New(c, nCores, &s.Clock, s.Qnodes[c], prog)
	}

	// Wire the activity-driven scheduler: every core starts runnable;
	// banks wake when a request reaches their delivery FIFO; the
	// response-delivery loop wakes when a response reaches a core's
	// delivery FIFO. (The fabric wired its own router dirty lists in
	// NewFabric.) With more than one partition the same hooks target the
	// owning partition's sets instead — every BankReq/CoreResp producer
	// is partition-local, so those sets need no atomics.
	if p := resolvePartitions(cfg.Partitions, topo.NumTiles()); p > 1 {
		s.initPartitions(p)
		return s
	}
	s.slots = engine.NewScheduler(nCores)
	for c := 0; c < nCores; c++ {
		s.slots.Wake(c)
	}
	s.banks = engine.MakeActiveSet(nBanks)
	for b := 0; b < nBanks; b++ {
		b := b
		s.Fabric.BankReq[b].OnPush(func() { s.banks.Add(b) })
	}
	s.deliv = engine.MakeActiveSet(nCores)
	for c := 0; c < nCores; c++ {
		c := c
		s.Fabric.CoreResp[c].OnPush(func() { s.deliv.Add(c) })
	}
	return s
}

// Tick advances the whole system by one cycle, visiting only components
// that can make progress: runnable core slots, dirty routers, banks with
// queued work, cores with undelivered responses. Quiescent components
// are parked with registered wake conditions (FIFO push hooks, response
// delivery, the PAUSE timer heap), and their per-cycle wait counters are
// reconciled lazily, so the observable state evolution — including every
// Snapshot counter — is cycle-exact against TickDense.
func (s *System) Tick() {
	if s.par != nil {
		// Partitioned system: run the same barrier-cycle structure
		// inline on one thread — bit-identical, so per-cycle drivers
		// (trace sampling, parity tests) work regardless of mode.
		s.parTickInline()
		return
	}
	now := s.Clock.Now()
	// Expired PAUSE countdowns rejoin the schedule first, so the core
	// executes this cycle exactly as under dense ticking.
	s.slots.WakeDue(now, func(id int) { s.Cores[id].Unpark() })

	// Phase 1: core slots (Qnode i then Core i, ascending i).
	s.slotScratch = s.slots.AppendRunnable(s.slotScratch[:0])
	for _, i := range s.slotScratch {
		q, c := s.Qnodes[i], s.Cores[i]
		q.Tick()
		if !c.Parked() {
			c.Tick()
			if c.Quiescent() {
				s.parkCore(i)
			}
		}
		if c.Parked() && !q.Busy() {
			s.slots.Sleep(i)
		}
	}

	// Phase 2: fabric routers with occupied inputs.
	routersTicked := s.Fabric.TickActive()

	// Phase 3: banks with queued requests or pending responses.
	s.bankScratch = s.banks.AppendTo(s.bankScratch[:0])
	for _, b := range s.bankScratch {
		bank := s.Banks[b]
		bank.Tick()
		if bank.Idle() {
			s.banks.Remove(b)
		}
	}

	// Phase 4: response delivery for cores with queued responses.
	s.delScratch = s.deliv.AppendTo(s.delScratch[:0])
	for _, i := range s.delScratch {
		if resp, ok := s.Fabric.CoreResp[i].Pop(); ok {
			if out, ok := s.Qnodes[i].Deliver(resp); ok {
				s.Cores[i].Deliver(out) // unparks; executes next cycle
				s.slots.Wake(i)
			}
			if s.Qnodes[i].Busy() {
				s.slots.Wake(i) // protocol traffic to drain (wake-up bounce)
			}
		}
		if s.Fabric.CoreResp[i].Len() == 0 {
			s.deliv.Remove(i)
		}
	}
	// Per-phase accounting: one add per phase, from lengths the loop
	// already had in hand (see KernelStats).
	s.Kernel.Ticks++
	s.Kernel.SlotsTicked += uint64(len(s.slotScratch))
	s.Kernel.RoutersTicked += uint64(routersTicked)
	s.Kernel.BanksTicked += uint64(len(s.bankScratch))
	s.Kernel.DelivTicked += uint64(len(s.delScratch))
	s.Clock.Advance()
}

// parkCore takes a quiescent core off the schedule, registering its
// timer wake-up when it is counting down a PAUSE.
func (s *System) parkCore(i int) {
	c := s.Cores[i]
	s.Kernel.Parks++
	if c.State() == cpu.Halted {
		s.nHalted++
	}
	if wakeAt := c.Park(); wakeAt >= 0 {
		s.slots.WakeAt(i, wakeAt)
	}
}

// TickDense advances the whole system by one cycle the original way:
// every Qnode, core, router and bank is ticked unconditionally. It is
// the dense reference loop retained for differential testing of the
// activity-driven Tick (and for measuring its speedup); drive any one
// System exclusively through either Tick or TickDense, not a mix, since
// the dense loop does not maintain the scheduler's parking state.
func (s *System) TickDense() {
	for i, c := range s.Cores {
		s.Qnodes[i].Tick()
		c.Tick()
	}
	s.Fabric.Tick()
	for _, b := range s.Banks {
		b.Tick()
	}
	for i := range s.Cores {
		if resp, ok := s.Fabric.CoreResp[i].Pop(); ok {
			if out, ok := s.Qnodes[i].Deliver(resp); ok {
				s.Cores[i].Deliver(out)
			}
		}
	}
	s.Clock.Advance()
}

// busy reports whether any component can make progress this cycle
// without a timer firing first. When false, every message has drained
// and every core is parked: the only future events are PAUSE expiries.
func (s *System) busy() bool {
	return s.slots.AnyRunnable() || !s.banks.Empty() || !s.deliv.Empty() ||
		s.Fabric.Busy()
}

// Run advances n cycles, fast-forwarding the clock across globally idle
// spans (all cores asleep in backoff, nothing in flight) — skipped wait
// cycles are reconciled into the cores' counters, so snapshots are
// identical to having simulated every cycle.
func (s *System) Run(n int) {
	if s.par != nil {
		s.runPar(n)
		return
	}
	target := s.Clock.Now() + engine.Cycle(n)
	for s.Clock.Now() < target {
		if !s.busy() {
			w, ok := s.slots.NextWake()
			if !ok || w >= target {
				// Fully idle to the horizon: skip straight to it.
				s.fastForward(target)
				return
			}
			s.fastForward(w)
		}
		s.Tick()
	}
}

// fastForward jumps the clock to cycle at, accounting the skipped span.
func (s *System) fastForward(at engine.Cycle) {
	if saved := at - s.Clock.Now(); saved > 0 {
		s.Kernel.FFSpans++
		s.Kernel.FFCyclesSaved += uint64(saved)
	}
	s.Clock.AdvanceTo(at)
}

// RunDense advances n cycles through the dense reference loop.
func (s *System) RunDense(n int) {
	for i := 0; i < n; i++ {
		s.TickDense()
	}
}

// RunUntilHalted runs until every core halted or maxCycles elapse; it
// reports whether all cores halted. Like Run it fast-forwards idle
// spans; a deadlocked system (nothing runnable, no timers, cores still
// waiting) skips straight to the cycle budget rather than simulating
// empty cycles.
func (s *System) RunUntilHalted(maxCycles int) bool {
	if s.par != nil {
		return s.runParUntilHalted(maxCycles)
	}
	target := s.Clock.Now() + engine.Cycle(maxCycles)
	for s.Clock.Now() < target {
		if s.nHalted == len(s.Cores) {
			return true
		}
		if !s.busy() {
			w, ok := s.slots.NextWake()
			if !ok || w >= target {
				break
			}
			s.fastForward(w)
		}
		s.Tick()
	}
	s.fastForward(target)
	return s.nHalted == len(s.Cores)
}

// AllHalted reports whether every core has executed HALT.
func (s *System) AllHalted() bool {
	for _, c := range s.Cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// Quiescent reports whether no message is in flight anywhere — fabric,
// banks, and the Qnodes' protocol state: a Qnode holding an open episode
// (an undrained wake-up, a pending grant, a linked successor) represents
// buffered traffic even when every FIFO is empty.
func (s *System) Quiescent() bool {
	if s.Fabric.InFlight() != 0 {
		return false
	}
	for _, b := range s.Banks {
		if !b.Idle() {
			return false
		}
	}
	for _, n := range s.Qnodes {
		if !n.Idle() {
			return false
		}
	}
	return true
}

// SyncStats reconciles the lazily-accounted wait counters of every
// parked core up to the last completed cycle. Snapshot calls it; callers
// reading core Stats fields directly (e.g. the trace sampler) must call
// it first to observe cycle-exact counters.
func (s *System) SyncStats() {
	for _, c := range s.Cores {
		c.SyncStats()
	}
}

// bankFor returns the bank holding addr.
func (s *System) bankFor(addr uint32) *mem.Bank {
	return s.Banks[s.Cfg.Topo.BankOfAddr(addr)]
}

// WriteWord initializes a memory word directly (zero simulated time).
func (s *System) WriteWord(addr, v uint32) { s.bankFor(addr).Poke(addr, v) }

// ReadWord reads a memory word directly (zero simulated time).
func (s *System) ReadWord(addr uint32) uint32 { return s.bankFor(addr).Peek(addr) }

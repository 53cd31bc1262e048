//! The unified pipeline model (in-order and out-of-order issue).
//!
//! The pipeline is *execution driven*: the workload synchronously pushes
//! dynamic instructions (via [`crate::SimSink`]) into a bounded fetch
//! queue, and the model advances its cycle-by-cycle simulation whenever
//! the queue fills. Stage order within a cycle is: complete/resolve →
//! retire → issue → dispatch → drain stores. Dispatch after issue gives
//! every instruction a one-cycle decode stage.

use std::collections::VecDeque;

use visim_isa::{BranchKind, Inst, MemKind, MemRef};
use visim_mem::{MemConfig, MemStats, MemSystem, Request, ServiceLevel};
use visim_obs::codec::ByteReader;
use visim_obs::trace::{InstSpan, InstantKind, SharedTraceRing};
use visim_obs::{Histogram, Registry};
use visim_util::SimError;

use crate::config::{CpuConfig, IssuePolicy};
use crate::fu::FuPool;
use crate::predictor::{AgreePredictor, ReturnAddressStack};
use crate::sink::{SimSink, TraceSink};
use crate::stats::{CpuStats, StallClass};

/// In-flight producer map: register number → producer sequence number.
///
/// Direct-mapped on the low byte of the register number. The emitter
/// allocates SSA-style registers from a counter and at most `window`
/// (≤ 128) producers are in flight, so live registers span fewer than
/// 256 consecutive numbers and never collide — every operation is one
/// array access. Arbitrary (non-emitter) streams stay exactly correct
/// through the `overflow` list, which holds entries whose home slot is
/// taken by a different register.
#[derive(Debug)]
struct RegMap {
    slots: Box<[(u32, u64); 256]>,
    overflow: Vec<(u32, u64)>,
}

/// Empty-slot marker; valid keys never equal it because [`Reg::NONE`]
/// (`u32::MAX`) is filtered out before every map operation.
const REG_EMPTY: u32 = u32::MAX;

impl RegMap {
    fn new() -> Self {
        RegMap {
            slots: Box::new([(REG_EMPTY, 0); 256]),
            overflow: Vec::new(),
        }
    }

    /// Same contract as `HashMap::insert`: records `reg → seq` and
    /// returns the previously mapped sequence number, if any.
    fn insert(&mut self, reg: u32, seq: u64) -> Option<u64> {
        let slot = &mut self.slots[(reg & 255) as usize];
        if slot.0 == reg {
            return Some(std::mem::replace(&mut slot.1, seq));
        }
        if let Some(e) = self.overflow.iter_mut().find(|e| e.0 == reg) {
            return Some(std::mem::replace(&mut e.1, seq));
        }
        if slot.0 == REG_EMPTY {
            *slot = (reg, seq);
        } else {
            self.overflow.push((reg, seq));
        }
        None
    }

    fn get(&self, reg: u32) -> Option<u64> {
        let slot = self.slots[(reg & 255) as usize];
        if slot.0 == reg {
            return Some(slot.1);
        }
        if self.overflow.is_empty() {
            return None;
        }
        self.overflow.iter().find(|e| e.0 == reg).map(|e| e.1)
    }

    fn remove(&mut self, reg: u32) {
        let slot = &mut self.slots[(reg & 255) as usize];
        if slot.0 == reg {
            slot.0 = REG_EMPTY;
            return;
        }
        if let Some(i) = self.overflow.iter().position(|e| e.0 == reg) {
            self.overflow.swap_remove(i);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    inst: Inst,
    issued: bool,
    done_at: u64,
    mem_level: Option<ServiceLevel>,
    /// Last issue attempt was rejected by the memory system (MSHR
    /// contention); retry no earlier than `mem_retry_at`.
    mem_blocked: bool,
    mem_retry_at: u64,
    mispredicted: bool,
    resolved: bool,
    /// Source producers that have not issued yet. Each one is on its
    /// producer's consumer list and decrements this when it issues; at
    /// zero the slot joins the issue candidates.
    pending: u32,
    /// Cycle at which every issued producer's result exists (the
    /// maximum of their `done_at`); exact once `pending` is zero.
    ready_at: u64,
}

impl Slot {
    fn new(inst: Inst) -> Self {
        Slot {
            inst,
            issued: false,
            done_at: 0,
            mem_level: None,
            mem_blocked: false,
            mem_retry_at: 0,
            mispredicted: false,
            resolved: false,
            pending: 0,
            ready_at: 0,
        }
    }
}

/// A span under construction: lifecycle cycles gathered while the
/// instruction is in flight, completed into an
/// [`InstSpan`] at retirement.
#[derive(Debug, Clone, Copy)]
struct SpanBuild {
    fetch: u64,
    dispatch: u64,
    issue: u64,
    complete: u64,
}

/// Tracing state attached to a pipeline (boxed so the untraced
/// `Pipeline` only grows by one pointer-sized `Option`).
///
/// `fetch_cycles` parallels `fetch_q` and `spans` parallels `window`:
/// entries are pushed and popped at exactly the queue/window push and
/// pop sites, so a window index is also a span index.
#[derive(Debug)]
struct PipeTracer {
    ring: SharedTraceRing,
    fetch_cycles: VecDeque<u64>,
    spans: VecDeque<SpanBuild>,
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Pipeline-side statistics (cycles, mix, attribution, branches).
    pub cpu: CpuStats,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Time-weighted L1 MSHR occupancy histogram.
    pub mshr_histogram: Vec<u64>,
    /// Observability metrics accumulated over the run: predictor
    /// training behaviour, RAS pressure, window occupancy, and the
    /// memory system's eviction / MSHR-peak counters.
    pub metrics: Registry,
}

impl Summary {
    /// Total execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles
    }
}

/// The processor pipeline simulator.
///
/// See the crate documentation for an example.
#[derive(Debug)]
pub struct Pipeline {
    cfg: CpuConfig,
    mem: MemSystem,
    fus: FuPool,
    pred: AgreePredictor,
    ras: ReturnAddressStack,
    fetch_q: VecDeque<Inst>,
    fetch_cap: usize,
    window: VecDeque<Slot>,
    /// Producer sequence number for every register whose producer has not
    /// retired yet; a missing entry means the value is available.
    produced: RegMap,
    head_seq: u64,
    now: u64,
    /// Cycle at which the front end may dispatch again (`u64::MAX` while
    /// an unresolved mispredicted branch blocks it).
    fetch_resume_at: u64,
    unresolved_branches: u32,
    /// Sequence numbers of dispatched-but-unresolved branches.
    unresolved_seqs: Vec<u64>,
    /// Earliest cycle any unresolved branch can complete (the minimum
    /// `done_at` over the issued ones; `u64::MAX` when none is issued —
    /// an unissued branch cannot resolve, and issuing one lowers the
    /// bound). The per-cycle resolution scan is skipped until then.
    resolve_check_at: u64,
    /// Unissued window slots: the watchdog diagnostic, and where
    /// in-order issue starts (the youngest `unissued` slots).
    unissued: usize,
    /// Per-slot issue state is kept in rings indexed by
    /// `seq & ring_mask`. At most `window` consecutive sequence numbers
    /// are in flight and the ring holds at least that many, so two live
    /// slots never share an entry.
    ring_mask: u64,
    /// Consumer lists: the slots waiting on each unissued producer. A
    /// list is drained when its producer issues, and its buffer is
    /// reused by later producers.
    consumers: Vec<Vec<u64>>,
    /// Candidate bitmask: unissued slots whose producers have all
    /// issued — the only slots the issue stage examines.
    candidates: Vec<u64>,
    /// Lower bound on the next cycle any candidate could issue (the
    /// minimum of their `ready_at`/`mem_retry_at` bounds as of the last
    /// scan; `u64::MAX` with no candidates). While `now < issue_scan_at`
    /// the issue stage does nothing, and `idle_skip` may jump over it.
    issue_scan_at: u64,
    /// Completion times of loads occupying memory-queue slots.
    inflight_loads: Vec<u64>,
    /// Earliest completion time in `inflight_loads` (`u64::MAX` when
    /// empty): the per-cycle prune only scans when a load can actually
    /// have completed, instead of a `retain` sweep every cycle.
    inflight_min: u64,
    /// Retired stores waiting to be accepted by the L1.
    store_buffer: VecDeque<(Request, u64)>,
    /// With `blocking_loads`, no instruction issues before this cycle.
    issue_blocked_until: u64,
    stats: CpuStats,
    /// Per-cycle instruction-window occupancy (sampled after dispatch).
    window_occ: Histogram,
    /// Cycle at which the pipeline state last changed (watchdog anchor).
    last_progress: u64,
    /// First failure observed: watchdog wedge, model invariant, or a
    /// fault propagated from the memory system. Once set the simulation
    /// stops advancing and `try_finish` reports it.
    fault: Option<SimError>,
    /// Cycle-level tracing state; `None` (the default) in normal runs,
    /// where every hook is one never-taken branch.
    tracer: Option<Box<PipeTracer>>,
}

impl Pipeline {
    /// Build a pipeline over a fresh memory system.
    pub fn new(cfg: CpuConfig, mem_cfg: MemConfig) -> Self {
        let fus = FuPool::new(&cfg);
        let pred = AgreePredictor::new(cfg.predictor_entries);
        let ras = ReturnAddressStack::new(cfg.ras_entries);
        let stats = CpuStats::new(cfg.issue_width);
        // A whole number of candidate words, and room for every slot.
        let ring = (cfg.window as usize).next_power_of_two().max(64);
        Pipeline {
            fetch_cap: (cfg.window as usize * 2).max(64),
            fus,
            pred,
            ras,
            fetch_q: VecDeque::new(),
            window: VecDeque::with_capacity(cfg.window as usize),
            produced: RegMap::new(),
            head_seq: 0,
            now: 0,
            fetch_resume_at: 0,
            unresolved_branches: 0,
            unresolved_seqs: Vec::new(),
            resolve_check_at: u64::MAX,
            unissued: 0,
            ring_mask: ring as u64 - 1,
            consumers: vec![Vec::new(); ring],
            candidates: vec![0; ring / 64],
            issue_scan_at: u64::MAX,
            inflight_loads: Vec::new(),
            inflight_min: u64::MAX,
            store_buffer: VecDeque::new(),
            issue_blocked_until: 0,
            stats,
            window_occ: Histogram::new(&[1, 2, 4, 8, 16, 32, 64, 128]),
            last_progress: 0,
            fault: None,
            tracer: None,
            mem: MemSystem::new(mem_cfg),
            cfg,
        }
    }

    fn work_pending(&self) -> bool {
        !self.fetch_q.is_empty()
            || !self.window.is_empty()
            || !self.store_buffer.is_empty()
            || !self.inflight_loads.is_empty()
    }

    /// Run the simulation to completion and return the statistics, or
    /// the failure that stopped it: a watchdog-detected wedge
    /// ([`SimError::CycleBudget`]) or a violated model invariant
    /// ([`SimError::Invariant`], from this pipeline or the memory
    /// system).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] observed; the simulation stops at
    /// that point instead of hanging or corrupting statistics.
    pub fn try_finish(mut self) -> Result<Summary, SimError> {
        while self.fault.is_none() && self.work_pending() {
            self.cycle();
        }
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        let hist = self.mem.mshr_histogram(self.now);
        let mut metrics = Registry::new();
        let ps = self.pred.stats();
        metrics.set("cpu.predictor.updates", ps.updates);
        metrics.set("cpu.predictor.bias_agreements", ps.bias_agreements);
        metrics.set("cpu.predictor.flips", ps.flips);
        metrics.set("cpu.ras.overflows", self.ras.overflows());
        metrics.set("cpu.ras.underflows", self.ras.underflows());
        metrics.insert_histogram("cpu.window_occupancy", self.window_occ.clone());
        self.mem.export_metrics(&mut metrics);
        Ok(Summary {
            cpu: self.stats,
            mem: self.mem.stats().clone(),
            mshr_histogram: hist,
            metrics,
        })
    }

    /// Run the simulation to completion and return the statistics.
    ///
    /// # Panics
    ///
    /// Panics on a simulation fault; use [`Pipeline::try_finish`] in
    /// study runs that must degrade gracefully.
    pub fn finish(self) -> Summary {
        self.try_finish()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Restore an architectural checkpoint captured by
    /// [`crate::WarmingSink::checkpoint`]: predictor counters,
    /// return-address stack, and cache/MSHR residency. Must be called
    /// on a freshly built pipeline, before any instruction is pushed —
    /// the pipeline then observes its sample window on a warmed machine
    /// with clean statistics. The pipeline and the checkpoint must share
    /// the same processor and memory geometry.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the pipeline unusable — discard it) on
    /// geometry mismatch, malformed state, or trailing bytes.
    pub fn restore_checkpoint(&mut self, state: &[u8]) -> Result<(), String> {
        if self.now != 0 || !self.fetch_q.is_empty() || !self.window.is_empty() {
            return Err("checkpoint restored into a running pipeline".into());
        }
        let mut r = ByteReader::new(state);
        self.pred.load_state(&mut r)?;
        self.ras.load_state(&mut r)?;
        self.mem.load_state(&mut r)?;
        r.done()
    }

    /// Zero the statistics a sampled window reports — the cycle /
    /// retirement / stall-attribution accumulators and the
    /// window-occupancy histogram — while leaving every piece of
    /// machine state (caches, predictor, RAS, in-flight instructions,
    /// the current cycle) untouched. The sampled runner calls this at
    /// the boundary between a window's detailed warm-up span and its
    /// measured span, so the measurement starts from a *busy* pipeline
    /// instead of the empty one a checkpoint restore leaves behind,
    /// without the warm-up's cycles contaminating the estimate.
    ///
    /// Instructions in flight at the reset retire into the measured
    /// statistics (and the measured span's own tail drains past its
    /// last push) — the two edges model the steady state a window cut
    /// from a longer run would see, which is exactly what the
    /// extrapolation assumes.
    pub fn reset_stats(&mut self) {
        self.stats = CpuStats::new(self.cfg.issue_width);
        self.window_occ = Histogram::new(&[1, 2, 4, 8, 16, 32, 64, 128]);
    }

    /// The first failure observed so far, if any.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// The processor configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    fn mem_queue_used(&self) -> usize {
        self.inflight_loads.len() + self.store_buffer.len()
    }

    fn record_fault(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    /// Occupancy/depth fingerprint: unchanged across a cycle means the
    /// machine made no externally-visible progress that cycle.
    fn progress_signature(&self) -> (u64, usize, usize, usize, usize) {
        (
            self.head_seq,
            self.window.len(),
            self.fetch_q.len(),
            self.store_buffer.len(),
            self.inflight_loads.len(),
        )
    }

    /// State dump attached to a watchdog abort (DESIGN.md-level detail:
    /// enough to localize a wedged model without rerunning).
    fn wedge_diagnostic(&self) -> String {
        let oldest = match self.window.front() {
            Some(s) => format!(
                "seq {} op {:?} pc {:#x} issued={} done_at={} mem_blocked={} retry_at={} resolved={}",
                self.head_seq,
                s.inst.op,
                s.inst.pc,
                s.issued,
                s.done_at,
                s.mem_blocked,
                s.mem_retry_at,
                s.resolved
            ),
            None => "none".into(),
        };
        format!(
            "window {}/{} fetch_q {} store_buffer {} inflight_loads {} \
             unissued {} fetch_resume_at {} unresolved_branches {} \
             issue_blocked_until {}; oldest un-retired: {oldest}",
            self.window.len(),
            self.cfg.window,
            self.fetch_q.len(),
            self.store_buffer.len(),
            self.inflight_loads.len(),
            self.unissued,
            self.fetch_resume_at,
            self.unresolved_branches,
            self.issue_blocked_until
        )
    }

    /// Fast-forward over cycles in which every pipeline stage is a
    /// provable no-op, accounting them in bulk.
    ///
    /// Each stage is already guarded by a lower bound on the next cycle
    /// it can act (`inflight_min`, `resolve_check_at`, `issue_scan_at`,
    /// the front slot's `done_at`, `fetch_resume_at`, the store buffer's
    /// retry time). When *all* of those bounds lie in the future, the
    /// intervening cycles only run the per-cycle accounting — the same
    /// `(0, stall)` attribution and window occupancy every time, because
    /// no stage mutates any state they read — so they can be added in
    /// one step. The skip stops at the earliest bound (clamped to the
    /// watchdog deadline so a wedged model still faults at the exact
    /// same cycle), which keeps every statistic, fault, and text output
    /// byte-identical to the cycle-by-cycle loop.
    fn idle_skip(&mut self) {
        if self.tracer.is_some() {
            return; // traced runs sample the ring every cycle
        }
        let now = self.now;
        if self.inflight_min <= now || self.resolve_check_at <= now {
            return;
        }
        let mut next = self.inflight_min.min(self.resolve_check_at);
        // Retire: blocked on the front slot; its stall classification is
        // constant while no other stage acts.
        let stall = match self.window.front() {
            Some(s) if !s.issued => {
                if s.inst.op.is_mem() && s.mem_blocked {
                    StallClass::L1Hit
                } else {
                    StallClass::FuStall
                }
            }
            Some(s) => {
                if s.done_at <= now {
                    return; // retires this cycle
                }
                next = next.min(s.done_at);
                match s.mem_level {
                    Some(level) if level.is_l1_miss() => StallClass::L1Miss,
                    Some(_) => StallClass::L1Hit,
                    None if s.inst.op.is_mem() => StallClass::L1Hit,
                    None => StallClass::FuStall,
                }
            }
            None => StallClass::FuStall,
        };
        // Issue.
        let mut eligible_at = self.issue_scan_at;
        if self.cfg.blocking_loads {
            eligible_at = eligible_at.max(self.issue_blocked_until);
        }
        if eligible_at <= now {
            return;
        }
        next = next.min(eligible_at);
        // Dispatch.
        if !self.fetch_q.is_empty() && self.window.len() < self.cfg.window as usize {
            if self.fetch_resume_at > now {
                next = next.min(self.fetch_resume_at);
            } else if let Some(b) = self.fetch_q.front().and_then(|i| i.branch) {
                if self.unresolved_branches >= self.cfg.max_spec_branches {
                    // Blocked until a branch resolves; resolution is
                    // bounded by the resolve/issue bounds above.
                } else if b.taken && self.cfg.taken_per_cycle == 0 {
                    // Permanently blocked: only the watchdog ends this.
                } else {
                    return; // dispatches this cycle
                }
            } else {
                return; // dispatches this cycle
            }
        }
        // Stores.
        if let Some(&(_, retry_at)) = self.store_buffer.front() {
            if retry_at <= now {
                return;
            }
            next = next.min(retry_at);
        }
        // Let the watchdog cycle itself run normally so a wedge faults
        // at the exact cycle the unskipped loop would report.
        next = next.min(
            self.last_progress
                .saturating_add(self.cfg.watchdog_cycles)
                .saturating_add(1),
        );
        if next <= now {
            return;
        }
        let n = next - now;
        self.stats.account_idle(n, stall);
        self.window_occ.observe_n(self.window.len() as u64, n);
        self.now = next;
    }

    fn cycle(&mut self) {
        self.idle_skip();
        let sig = self.progress_signature();
        let now = self.now;
        if let Some(t) = self.tracer.as_mut() {
            // Keep the shared ring's clock current so hook sites without
            // their own notion of time (predictor, cache evictions) can
            // timestamp events.
            t.ring.borrow_mut().set_now(now);
        }
        // Lazy prune: only scan when the earliest deadline has arrived;
        // completed loads swap-remove out (order is irrelevant, only the
        // occupancy count matters).
        if self.inflight_min <= now {
            let mut min = u64::MAX;
            let mut i = 0;
            while i < self.inflight_loads.len() {
                let t = self.inflight_loads[i];
                if t <= now {
                    self.inflight_loads.swap_remove(i);
                } else {
                    min = min.min(t);
                    i += 1;
                }
            }
            self.inflight_min = min;
        }
        self.resolve_branches();
        let (retired, stall) = self.retire();
        self.issue();
        self.dispatch();
        self.drain_stores();
        self.stats.account_cycle(retired, stall);
        if let Some(t) = self.tracer.as_mut() {
            // Same (retired, stall) inputs as `account_cycle`, so the
            // ring's attribution equals the aggregate exactly.
            t.ring
                .borrow_mut()
                .sample(retired, stall.map(StallClass::to_trace));
        }
        self.window_occ.observe(self.window.len() as u64);
        // Fault propagation and the cycle-budget watchdog. A wedged
        // model (an instruction that can never retire) would otherwise
        // spin this loop forever; a violated memory-model invariant
        // would silently corrupt the statistics.
        if let Some(fault) = self.mem.take_fault() {
            self.record_fault(fault);
        }
        if self.mem_queue_used() > self.cfg.mem_queue as usize {
            self.record_fault(SimError::Invariant {
                model: "pipeline",
                detail: format!(
                    "memory queue oversubscribed: {} in flight, capacity {}",
                    self.mem_queue_used(),
                    self.cfg.mem_queue
                ),
            });
        }
        if self.progress_signature() != sig {
            self.last_progress = self.now;
        } else if self.now - self.last_progress > self.cfg.watchdog_cycles && self.work_pending() {
            self.record_fault(SimError::CycleBudget {
                cycle: self.now,
                diagnostic: self.wedge_diagnostic(),
            });
        }
        self.now += 1;
    }

    /// Mark completed branches resolved; a resolved misprediction
    /// re-opens the front end after the refill penalty. Skipped until
    /// [`Pipeline::resolve_check_at`] — a branch resolves exactly at its
    /// issued `done_at`, so scanning earlier can never find one.
    fn resolve_branches(&mut self) {
        let now = self.now;
        if now < self.resolve_check_at {
            return;
        }
        let head = self.head_seq;
        let window = &mut self.window;
        let penalty = self.cfg.mispredict_penalty;
        let mut resolved_misp_at = None;
        let mut resolved = 0u32;
        let mut next_check = u64::MAX;
        // Swap-remove scan: order is irrelevant (at most one mispredicted
        // branch is ever in flight, since fetch stalls until it resolves).
        let seqs = &mut self.unresolved_seqs;
        let mut i = 0;
        while i < seqs.len() {
            let ix = (seqs[i] - head) as usize;
            let slot = &mut window[ix];
            if slot.issued && slot.done_at <= now {
                slot.resolved = true;
                resolved += 1;
                if slot.mispredicted {
                    resolved_misp_at = Some(slot.done_at);
                }
                seqs.swap_remove(i);
            } else {
                if slot.issued {
                    next_check = next_check.min(slot.done_at);
                }
                i += 1;
            }
        }
        self.resolve_check_at = next_check;
        self.unresolved_branches -= resolved;
        if let Some(done_at) = resolved_misp_at {
            self.fetch_resume_at = done_at + penalty;
        }
    }

    /// Retire up to `issue_width` completed instructions in order.
    /// Returns the retired count and the stall class of the first
    /// instruction that could not retire.
    fn retire(&mut self) -> (u32, Option<StallClass>) {
        let mut retired = 0;
        while retired < self.cfg.issue_width {
            let Some(slot) = self.window.front() else {
                return (retired, Some(StallClass::FuStall));
            };
            if !slot.issued {
                let class = if slot.inst.op.is_mem() && slot.mem_blocked {
                    StallClass::L1Hit // MSHR / memory-structure contention
                } else {
                    StallClass::FuStall
                };
                return (retired, Some(class));
            }
            if slot.done_at > self.now {
                let class = match slot.mem_level {
                    Some(level) if level.is_l1_miss() => StallClass::L1Miss,
                    Some(_) => StallClass::L1Hit,
                    None if slot.inst.op.is_mem() => StallClass::L1Hit,
                    None => StallClass::FuStall,
                };
                return (retired, Some(class));
            }
            // Stores and prefetches enter the memory queue at
            // retirement and need a slot there.
            if let Some(mem) = slot.inst.mem {
                if mem.kind.is_store() || mem.kind == MemKind::Prefetch {
                    if self.mem_queue_used() >= self.cfg.mem_queue as usize {
                        return (retired, Some(StallClass::L1Hit));
                    }
                    self.store_buffer
                        .push_back((Request::new(mem.addr, mem.size, mem.kind), self.now));
                }
            }
            let slot = self.window.pop_front().expect("checked above");
            if let Some(t) = self.tracer.as_mut() {
                let sb = t.spans.pop_front().expect("spans parallel window");
                t.ring.borrow_mut().span(InstSpan {
                    seq: self.head_seq,
                    pc: slot.inst.pc,
                    op: slot.inst.op.name(),
                    fetch: sb.fetch,
                    dispatch: sb.dispatch,
                    issue: sb.issue,
                    complete: sb.complete,
                    retire: self.now,
                });
            }
            self.head_seq += 1;
            if slot.inst.dst.is_some() {
                self.produced.remove(slot.inst.dst.0);
            }
            self.stats.note_retired(slot.inst.op);
            retired += 1;
        }
        (retired, None)
    }

    /// Issue ready candidates in program order (the in-order policy
    /// stops at the first one that cannot go).
    ///
    /// Only candidates — unissued slots whose producers have all issued
    /// — are examined; a slot still waiting on an unissued producer
    /// cannot issue and has no side effect to replay. A candidate is
    /// skipped without touching functional-unit or memory state while
    /// `now` is below its `ready_at` (or its memory retry time), and the
    /// whole stage is skipped while `now < issue_scan_at`, the minimum
    /// of those bounds. Both derive from immutable completion times and
    /// an instruction never completes in the cycle it issues, so every
    /// functional-unit claim and memory access happens on exactly the
    /// cycle, and in exactly the order, of an exhaustive per-cycle scan
    /// of the window.
    fn issue(&mut self) {
        let now = self.now;
        if self.cfg.blocking_loads && now < self.issue_blocked_until {
            return;
        }
        if now < self.issue_scan_at {
            return; // provably nothing can issue this cycle
        }
        let in_order = self.cfg.policy == IssuePolicy::InOrder;
        let end = self.head_seq + self.window.len() as u64;
        // In order, only the oldest unissued slot may issue; unissued
        // slots are then exactly the youngest `unissued`.
        let mut from = if in_order {
            end - self.unissued as u64
        } else {
            self.head_seq
        };
        let mut next_scan = u64::MAX;
        let mut issued = 0;
        while let Some(seq) = self.next_candidate(from, end) {
            if issued >= self.cfg.issue_width {
                next_scan = next_scan.min(now + 1);
                break;
            }
            if in_order && seq != from {
                // The oldest unissued slot waits on itself (a corrupt
                // stream): nothing younger may pass it, ever.
                break;
            }
            from = seq + 1;
            let i = (seq - self.head_seq) as usize;
            let slot = &self.window[i];
            let mut bound = slot.ready_at;
            if slot.mem_blocked {
                bound = bound.max(slot.mem_retry_at);
            }
            if now >= bound {
                let inst = slot.inst;
                let ok = if let Some(mem) = inst.mem {
                    self.try_issue_mem(i, mem, &inst)
                } else if self.fus.try_issue(inst.op, now) {
                    let slot = &mut self.window[i];
                    slot.issued = true;
                    slot.done_at = now + inst.op.latency(&self.cfg.lat) as u64;
                    true
                } else {
                    false
                };
                if ok {
                    self.note_issued(i, seq);
                    issued += 1;
                    if self.cfg.blocking_loads && self.issue_blocked_until > now {
                        next_scan = next_scan.min(now + 1);
                        break; // a blocking load was just issued
                    }
                    continue;
                }
                // Memory contention carries its own retry bound; a busy
                // functional unit (or a full memory queue) may clear
                // next cycle.
                let slot = &self.window[i];
                let mem_bound = if slot.mem_blocked {
                    slot.mem_retry_at
                } else {
                    0
                };
                bound = mem_bound.max(now + 1);
            }
            next_scan = next_scan.min(bound);
            if in_order {
                break; // strict program-order issue
            }
        }
        self.issue_scan_at = next_scan;
    }

    /// The oldest candidate with a sequence number in `from..end`.
    fn next_candidate(&self, mut from: u64, end: u64) -> Option<u64> {
        while from < end {
            let p = (from & self.ring_mask) as usize;
            let bits = self.candidates[p / 64] >> (p % 64);
            if bits != 0 {
                let seq = from + bits.trailing_zeros() as u64;
                return (seq < end).then_some(seq);
            }
            from += 64 - (p % 64) as u64;
        }
        None
    }

    fn set_candidate(&mut self, seq: u64, on: bool) {
        let p = (seq & self.ring_mask) as usize;
        let bit = 1u64 << (p % 64);
        if on {
            self.candidates[p / 64] |= bit;
        } else {
            self.candidates[p / 64] &= !bit;
        }
    }

    /// Bookkeeping for the slot at window index `i` (sequence `seq`),
    /// which issued this cycle: walk its consumer list once, handing
    /// each consumer this result's completion time; those left with no
    /// unissued producer become candidates. They are younger, so this
    /// cycle's scan may still reach them, but their `ready_at` lies
    /// ahead: they only contribute their bound to `issue_scan_at`.
    fn note_issued(&mut self, i: usize, seq: u64) {
        self.unissued -= 1;
        self.set_candidate(seq, false);
        let done_at = self.window[i].done_at;
        if let Some(t) = self.tracer.as_mut() {
            let sb = &mut t.spans[i];
            sb.issue = self.now;
            sb.complete = done_at;
        }
        if self.window[i].inst.branch.is_some() {
            // An unresolved branch just gained a completion time.
            self.resolve_check_at = self.resolve_check_at.min(done_at);
        }
        let k = (seq & self.ring_mask) as usize;
        let mut list = std::mem::take(&mut self.consumers[k]);
        for &c in &list {
            let slot = &mut self.window[(c - self.head_seq) as usize];
            slot.pending -= 1;
            slot.ready_at = slot.ready_at.max(done_at);
            if slot.pending == 0 {
                self.set_candidate(c, true);
            }
        }
        list.clear();
        self.consumers[k] = list;
    }

    /// Issue the memory instruction in window slot `i`. Returns false
    /// when it must keep waiting.
    fn try_issue_mem(&mut self, i: usize, mem: MemRef, inst: &Inst) -> bool {
        let now = self.now;
        let is_store = mem.kind.is_store();
        let is_prefetch = mem.kind == MemKind::Prefetch;
        if !is_store && !is_prefetch && self.mem_queue_used() >= self.cfg.mem_queue as usize {
            return false; // loads need a memory-queue slot
        }
        if !self.fus.try_issue(inst.op, now) {
            return false; // both AGUs busy this cycle
        }
        if is_store || is_prefetch {
            // Address generation only; stores and (non-binding)
            // prefetches drain through the memory queue after
            // retirement, so they never stall the core directly.
            let slot = &mut self.window[i];
            slot.issued = true;
            slot.done_at = now + 1;
            return true;
        }
        let req = Request::new(mem.addr, mem.size, mem.kind);
        match self.mem.access(req, now + 1) {
            Ok(r) => {
                let slot = &mut self.window[i];
                slot.issued = true;
                slot.done_at = r.done_at;
                slot.mem_level = Some(r.level);
                self.inflight_loads.push(r.done_at);
                self.inflight_min = self.inflight_min.min(r.done_at);
                if self.cfg.blocking_loads {
                    self.issue_blocked_until = r.done_at;
                }
                true
            }
            Err(rej) => {
                // Demand accesses wait for MSHR capacity and retry.
                let slot = &mut self.window[i];
                slot.mem_blocked = true;
                slot.mem_retry_at = rej.retry_at.max(now + 1);
                false
            }
        }
    }

    /// Move instructions from the fetch queue into the window.
    fn dispatch(&mut self) {
        if self.now < self.fetch_resume_at {
            return;
        }
        let mut dispatched = 0;
        let mut taken = 0;
        while dispatched < self.cfg.issue_width
            && self.window.len() < self.cfg.window as usize
            && !self.fetch_q.is_empty()
        {
            // Branch limits are checked before consuming the instruction.
            if let Some(b) = self.fetch_q.front().and_then(|i| i.branch) {
                if self.unresolved_branches >= self.cfg.max_spec_branches {
                    break;
                }
                if b.taken && taken >= self.cfg.taken_per_cycle {
                    break;
                }
            }
            let inst = self.fetch_q.pop_front().expect("non-empty");
            if let Some(t) = self.tracer.as_mut() {
                // Instructions pushed before the tracer was attached
                // have no recorded fetch cycle; fall back to now.
                let fetch = t.fetch_cycles.pop_front().unwrap_or(self.now);
                t.spans.push_back(SpanBuild {
                    fetch,
                    dispatch: self.now,
                    issue: 0,
                    complete: 0,
                });
            }
            let seq = self.head_seq + self.window.len() as u64;
            let mut slot = Slot::new(inst);
            if inst.dst.is_some() {
                let prev = self.produced.insert(inst.dst.0, seq);
                // The emitter allocates SSA-style registers; an in-flight
                // duplicate destination would corrupt the scoreboard.
                // Checked in release builds so a corrupted emitter stream
                // fails a study run loudly instead of producing garbage
                // cycle counts.
                if prev.is_some() {
                    self.record_fault(SimError::Invariant {
                        model: "pipeline",
                        detail: format!(
                            "destination register {:?} reused while in flight at pc {:#x} (seq {seq})",
                            inst.dst, inst.pc
                        ),
                    });
                }
            }
            // Rename: an issued producer's completion time bounds this
            // slot's readiness now; an unissued producer gets this slot
            // on its consumer list and hands over its completion time
            // when it issues. The destination is registered first, so
            // a (corrupt, non-SSA) instruction that reads its own
            // destination waits on itself forever — the watchdog's
            // wedged-model case.
            for r in inst.sources() {
                let Some(pseq) = self.produced.get(r.0) else {
                    continue; // the value is architectural
                };
                match self.window.get((pseq - self.head_seq) as usize) {
                    Some(p) if p.issued => slot.ready_at = slot.ready_at.max(p.done_at),
                    _ => {
                        slot.pending += 1;
                        self.consumers[(pseq & self.ring_mask) as usize].push(seq);
                    }
                }
            }
            if let Some(b) = inst.branch {
                self.unresolved_branches += 1;
                self.unresolved_seqs.push(seq);
                let correct = match b.kind {
                    BranchKind::Cond => {
                        self.stats.cond_branches += 1;
                        let p = self.pred.predict(inst.pc, b.backward);
                        self.pred.update(inst.pc, b.backward, b.taken);
                        let ok = p == b.taken;
                        if !ok {
                            self.stats.mispredicts += 1;
                        }
                        ok
                    }
                    BranchKind::Jump => true,
                    BranchKind::Call => {
                        self.ras.push(b.target);
                        true
                    }
                    BranchKind::Ret => {
                        let ok = self.ras.pop_matches(b.target);
                        if !ok {
                            self.stats.ras_mispredicts += 1;
                        }
                        ok
                    }
                };
                if b.taken {
                    taken += 1;
                }
                if !correct {
                    slot.mispredicted = true;
                    if let Some(t) = self.tracer.as_mut() {
                        t.ring
                            .borrow_mut()
                            .instant(InstantKind::BranchMispredict, inst.pc, 0);
                    }
                    self.enter_window(seq, slot);
                    // Fetch stalls until this branch resolves.
                    self.fetch_resume_at = u64::MAX;
                    return;
                }
            }
            self.enter_window(seq, slot);
            dispatched += 1;
        }
    }

    /// Append a renamed slot to the window; with every producer issued
    /// it is a candidate at once.
    fn enter_window(&mut self, seq: u64, slot: Slot) {
        if slot.pending == 0 {
            self.set_candidate(seq, true);
            self.issue_scan_at = self.issue_scan_at.min(slot.ready_at);
        }
        self.unissued += 1;
        self.window.push_back(slot);
    }

    /// Try to hand buffered stores to the L1 (up to one per port per
    /// cycle); rejected stores retry and back the queue up, reproducing
    /// the paper's write-backup MSHR contention.
    fn drain_stores(&mut self) {
        let ports = self.mem.config().l1.ports;
        for _ in 0..ports {
            let Some(&(req, retry_at)) = self.store_buffer.front() else {
                return;
            };
            if retry_at > self.now {
                return;
            }
            match self.mem.access(req, self.now) {
                Ok(_) => {
                    self.store_buffer.pop_front();
                }
                Err(rej) => {
                    self.store_buffer[0].1 = rej.retry_at.max(self.now + 1);
                    return;
                }
            }
        }
    }
}

impl SimSink for Pipeline {
    fn push(&mut self, inst: Inst) {
        self.fetch_q.push_back(inst);
        if let Some(t) = self.tracer.as_mut() {
            t.fetch_cycles.push_back(self.now);
        }
        // Once faulted, stop simulating: the workload keeps pushing (it
        // cannot observe the failure mid-emit), instructions accumulate
        // in the unbounded fetch queue, and `try_finish` reports the
        // fault.
        while self.fetch_q.len() > self.fetch_cap && self.fault.is_none() {
            self.cycle();
        }
    }
}

impl TraceSink for Pipeline {
    fn attach_tracer(&mut self, ring: SharedTraceRing) {
        ring.borrow_mut().set_width(self.cfg.issue_width);
        self.pred.attach_tracer(ring.clone());
        self.mem.attach_tracer(ring.clone());
        self.tracer = Some(Box::new(PipeTracer {
            ring,
            fetch_cycles: VecDeque::new(),
            spans: VecDeque::new(),
        }));
    }
}

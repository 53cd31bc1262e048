//! The traced run: each cell executed through the layer functions
//! themselves, one span per call, plus isolated probes of the layers a
//! cell only reaches through the pipeline (replay, memory system,
//! checkpoints, store, protocol parsing).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use visim::experiment;
use visim::sampling::{self, SampleConfig};
use visim::{store, Arch, WorkloadSize};
use visim_cpu::{Pipeline, SimSink, Summary, WarmingSink};
use visim_isa::{Inst, MemKind};
use visim_mem::{MemConfig, MemSystem, Request};
use visim_obs::Json;
use visim_serve::proto;
use visim_trace::{Checkpoint, Recorded, ReplayCursor};
use visim_util::pool;

use crate::grid::{self, Cell, Grid, Outcome};
use crate::serve;
use crate::util::{self, Digest, Metrics};

/// One span: a timed call into a layer.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    /// Index of the enclosing span among the same cell's spans.
    parent: Option<usize>,
    /// The thread the call ran on ([`thread_id`]).
    thread: usize,
    /// Instructions replayed inside the span (pipeline spans).
    insts: u64,
    /// Simulated cycles the span produced (pipeline spans).
    cycles: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end - self.start).as_nanos() as f64
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small per-process number for the calling thread.
fn thread_id() -> usize {
    THREAD.with(|t| *t)
}

/// The spans of one cell (or one sampled window).
#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.0.push(Span {
            name,
            start: now,
            end: now,
            parent,
            thread: thread_id(),
            insts: 0,
            cycles: 0,
        });
        self.0.len() - 1
    }

    fn end(&mut self, ix: usize) {
        self.0[ix].end = Instant::now();
    }

    /// Close a pipeline span, noting the work it did.
    fn end_work(&mut self, ix: usize, insts: u64, cycles: u64) {
        self.end(ix);
        self.0[ix].insts = insts;
        self.0[ix].cycles = cycles;
    }

    /// Take in `other`'s spans, its top-level ones under `parent`.
    fn adopt(&mut self, other: Spans, parent: usize) {
        let base = self.0.len();
        self.0.extend(other.0.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }
}

/// What it costs to record one span, in ns: a calibration loop of
/// begin/end pairs.
fn span_cost_ns() -> f64 {
    let reps = 100_000;
    let mut spans = Spans(Vec::with_capacity(reps));
    let t = Instant::now();
    for _ in 0..reps {
        let s = spans.begin("calibrate", None);
        spans.end(std::hint::black_box(s));
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

fn arch_span(arch: Arch) -> &'static str {
    match arch {
        Arch::InOrder1 => "cpu.inorder1",
        Arch::InOrder4 => "cpu.inorder4",
        Arch::Ooo4 => "cpu.ooo4",
    }
}

/// A sink that only counts: replay cost alone.
struct NullSink(u64);

impl SimSink for NullSink {
    fn push(&mut self, inst: Inst) {
        self.0 += u64::from(inst.mem.is_some());
    }
}

/// Collects the stream's memory references.
struct MemRefs(Vec<Request>);

impl SimSink for MemRefs {
    fn push(&mut self, inst: Inst) {
        if let Some(m) = inst.mem {
            self.0.push(Request::new(m.addr, m.size, m.kind));
        }
    }
}

/// Per-stream probe results.
struct Probe {
    insts: u64,
    refs: u64,
    replay_ns: f64,
    decode_secs: f64,
    encoded_bytes: usize,
    mem_default: MemProbe,
    mem_1k: MemProbe,
}

#[derive(Default)]
struct MemProbe {
    ns: f64,
    accesses: u64,
    attempts: u64,
    l1_misses: u64,
}

/// Feed `refs` to a fresh memory system, one reference per cycle,
/// retrying rejected demand accesses at the cycle the rejection names
/// and dropping rejected prefetches, as the pipeline does.
fn mem_probe(refs: &[Request], cfg: MemConfig) -> MemProbe {
    let mut m = MemSystem::new(cfg);
    let mut now = 0u64;
    let mut attempts = 0u64;
    let t0 = Instant::now();
    for &r in refs {
        now += 1;
        loop {
            attempts += 1;
            match m.access(r, now) {
                Ok(_) => break,
                Err(_) if r.kind == MemKind::Prefetch => break,
                Err(rej) => now = rej.retry_at.max(now + 1),
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let st = std::hint::black_box(m.stats());
    MemProbe {
        ns,
        accesses: refs.len() as u64,
        attempts,
        l1_misses: st.l1_primary_misses + st.l1_merged_misses,
    }
}

fn probe_stream(rec: &Recorded) -> Probe {
    let mut null = NullSink(0);
    let t0 = Instant::now();
    rec.replay(&mut null);
    let replay_ns = t0.elapsed().as_nanos() as f64;
    let bytes = rec.encode("perfbench");
    let t1 = Instant::now();
    let back = Recorded::decode(&bytes, "perfbench").expect("a stream decodes what it encoded");
    let decode_secs = t1.elapsed().as_secs_f64();
    assert_eq!(back.len(), rec.len(), "decoded stream length");
    drop(back);
    let mut refs = MemRefs(Vec::with_capacity(null.0 as usize));
    rec.replay(&mut refs);
    Probe {
        insts: rec.len() as u64,
        refs: null.0,
        replay_ns,
        decode_secs,
        encoded_bytes: bytes.len(),
        mem_default: mem_probe(&refs.0, MemConfig::default()),
        mem_1k: mem_probe(&refs.0, MemConfig::default().with_l1_size(1024)),
    }
}

/// Checkpoint statistics.
#[derive(Default)]
struct Ckpt {
    encodes: u64,
    encode_ns: f64,
    restores: u64,
    restore_ns: f64,
    bytes: u64,
    warm_insts: u64,
    warm_ns: f64,
}

impl Ckpt {
    fn add(&mut self, o: &Ckpt) {
        self.encodes += o.encodes;
        self.encode_ns += o.encode_ns;
        self.restores += o.restores;
        self.restore_ns += o.restore_ns;
        self.bytes += o.bytes;
        self.warm_insts += o.warm_insts;
        self.warm_ns += o.warm_ns;
    }
}

/// Functional warming over a prefix of `rec` with a checkpoint (encode,
/// decode, restore) at each default-geometry window entry, or at the
/// midpoint of a stream too short for one: the sampling layers probed
/// on a workload that simulates exactly.
fn ckpt_probe(rec: &Recorded, scfg: SampleConfig) -> Ckpt {
    let n = (rec.len() as u64).min(4 * scfg.period);
    let mut entries: Vec<u64> = (1u64..)
        .map(|k| k * scfg.period - scfg.warmup())
        .take_while(|&e| e < n)
        .collect();
    if entries.is_empty() {
        entries.push(n / 2);
    }
    let cpu = Arch::Ooo4.cpu();
    let mut warm = WarmingSink::new(&cpu, MemConfig::default());
    let mut cursor = ReplayCursor::start();
    let mut c = Ckpt::default();
    for (ix, &entry) in entries.iter().enumerate() {
        let t = Instant::now();
        cursor = rec.replay_span(cursor, entry - warm.insts(), &mut warm);
        c.warm_ns += t.elapsed().as_nanos() as f64;
        let key = format!("probe|{ix}");
        let t = Instant::now();
        let frame = Checkpoint {
            cursor,
            state: warm.checkpoint(),
        }
        .encode(&key);
        c.encode_ns += t.elapsed().as_nanos() as f64;
        c.encodes += 1;
        c.bytes += frame.len() as u64;
        let t = Instant::now();
        let ck = Checkpoint::decode_for(&frame, &key, rec).expect("probe checkpoint decodes");
        let mut pipe = Pipeline::new(cpu.clone(), MemConfig::default());
        pipe.restore_checkpoint(&ck.state)
            .expect("probe checkpoint restores");
        c.restore_ns += t.elapsed().as_nanos() as f64;
        c.restores += 1;
    }
    let t = Instant::now();
    rec.replay_span(cursor, n - warm.insts(), &mut warm);
    c.warm_ns += t.elapsed().as_nanos() as f64;
    c.warm_insts = warm.insts();
    c
}

/// A traced cell: its result (summary and detailed instructions), its
/// spans and its checkpoint counts.
struct Traced {
    result: Result<(Summary, u64), String>,
    spans: Spans,
    ckpt: Ckpt,
}

/// One cell through the layers, exactly as `try_run_timed_cfg` computes
/// it: exact replay into a pipeline, or the sampled path (warming,
/// checkpoint encode, the detailed windows on a `jobs`-worker pool as
/// the library runs them, extrapolation).
fn traced_cell(cell: &Cell, rec: &Recorded, scfg: Option<SampleConfig>, jobs: usize) -> Traced {
    let mut spans = Spans::default();
    let mut ckpt = Ckpt::default();
    let root = spans.begin("cell", None);
    let result = cell_layers(cell, rec, scfg, jobs, root, &mut spans, &mut ckpt);
    spans.end(root);
    Traced {
        result,
        spans,
        ckpt,
    }
}

fn cell_layers(
    cell: &Cell,
    rec: &Recorded,
    scfg: Option<SampleConfig>,
    jobs: usize,
    root: usize,
    spans: &mut Spans,
    ckpt: &mut Ckpt,
) -> Result<(Summary, u64), String> {
    let name = arch_span(cell.arch);
    let exact = |spans: &mut Spans| -> Result<Summary, String> {
        let s = spans.begin(name, Some(root));
        let mut pipe = Pipeline::new(cell.cpu.clone(), cell.mem.clone());
        rec.replay(&mut pipe);
        let summary = pipe.try_finish().map_err(|e| e.to_string())?;
        spans.end_work(s, rec.len() as u64, summary.cycles());
        Ok(summary)
    };
    let fallback = |spans: &mut Spans| -> Result<Summary, String> {
        let mut s = exact(spans)?;
        s.metrics.set("cell.sampling.windows", 0);
        s.metrics.set("cell.sampling.sampled_insts", s.cpu.retired);
        s.metrics.set("cell.sampling.ci_centipct", 0);
        s.metrics
            .set("cell.sampling.mode", sampling::MODE_EXACT_FALLBACK);
        Ok(s)
    };
    let n = rec.len() as u64;
    let Some(scfg) = scfg else {
        let summary = exact(spans)?;
        render(cell, &summary, root, spans);
        return Ok((summary, n));
    };
    let starts: Vec<u64> = (0u64..)
        .map(|k| k.saturating_mul(scfg.period))
        .take_while(|s| s.saturating_add(scfg.window) <= n)
        .collect();
    if starts.len() < 2 {
        let summary = fallback(spans)?;
        render(cell, &summary, root, spans);
        return Ok((summary, n));
    }
    let warmup = scfg.warmup();
    let entries: Vec<u64> = starts.iter().map(|&s| s.saturating_sub(warmup)).collect();
    let key = |ix: usize| format!("{}|win{ix}", cell.label);
    let mut warm = WarmingSink::new(&cell.cpu, cell.mem.clone());
    let mut cursor = ReplayCursor::start();
    let mut frames = Vec::with_capacity(entries.len());
    for (ix, &entry) in entries.iter().enumerate() {
        let s = spans.begin("cpu.warming", Some(root));
        let count = entry - warm.insts();
        cursor = rec.replay_span(cursor, count, &mut warm);
        spans.end_work(s, count, 0);
        let s = spans.begin("ckpt.encode", Some(root));
        let frame = Checkpoint {
            cursor,
            state: warm.checkpoint(),
        }
        .encode(&key(ix));
        spans.end(s);
        ckpt.encodes += 1;
        ckpt.bytes += frame.len() as u64;
        frames.push(frame);
    }
    let s = spans.begin("cpu.warming", Some(root));
    let rest = n - warm.insts();
    rec.replay_span(cursor, u64::MAX, &mut warm);
    spans.end_work(s, rest, 0);
    let total = warm.finish();

    // The windows, each a job on the pool with spans of its own.
    let work: Vec<_> = frames
        .into_iter()
        .enumerate()
        .map(|(ix, frame)| {
            let key = key(ix);
            let lead = starts[ix] - entries[ix];
            move || {
                let mut sp = Spans::default();
                let mut run = || -> Result<(Summary, u64), String> {
                    let s = sp.begin("ckpt.restore", None);
                    let ck = Checkpoint::decode_for(&frame, &key, rec)?;
                    let mut pipe = Pipeline::new(cell.cpu.clone(), cell.mem.clone());
                    pipe.restore_checkpoint(&ck.state)?;
                    sp.end(s);
                    let s = sp.begin(name, None);
                    let c = rec.replay_span(ck.cursor, lead, &mut pipe);
                    pipe.reset_stats();
                    let end = rec.replay_span(c, scfg.window, &mut pipe);
                    let w = pipe.try_finish().map_err(|e| e.to_string())?;
                    let insts = end.inst() - ck.cursor.inst();
                    sp.end_work(s, insts, w.cycles());
                    Ok((w, insts))
                };
                let r = run();
                (r, sp)
            }
        })
        .collect();
    let s = spans.begin("sampling.windows", Some(root));
    let done = pool::run_ordered(jobs, work);
    spans.end(s);
    let mut windows = Vec::with_capacity(done.len());
    let mut detailed = 0;
    for (r, sp) in done {
        spans.adopt(sp, s);
        ckpt.restores += 1;
        let (w, insts) = r?;
        detailed += insts;
        windows.push(w);
    }
    let s = spans.begin("sampling.extrapolate", Some(root));
    let est = visim_cpu::extrapolate(&total, &windows);
    spans.end(s);
    let (summary, detailed) = match est {
        Some((mut summary, est)) => {
            let m = &mut summary.metrics;
            m.set("cell.sampling.windows", est.windows);
            m.set("cell.sampling.sampled_insts", est.sampled_insts);
            m.set("cell.sampling.ci_centipct", est.ci_centipct);
            m.set("cell.sampling.warmup_insts", warmup);
            m.set("cell.sampling.mode", sampling::MODE_SAMPLED);
            (summary, detailed)
        }
        None => (fallback(spans)?, n),
    };
    render(cell, &summary, root, spans);
    Ok((summary, detailed))
}

/// The cell's artifact record, serialised.
fn render(cell: &Cell, summary: &Summary, root: usize, spans: &mut Spans) {
    let s = spans.begin("render", Some(root));
    std::hint::black_box(cell.render(summary).to_compact());
    spans.end(s);
}

/// Each span's self time (ns) and the weight its time carries in the
/// ledger. A span's self time is its time minus its children's. A
/// `sampling.windows` span waits for windows that may run in parallel
/// on other threads: its children's thread time is scaled down (their
/// weight) to the wall time the cell waited, so a cell's weighted self
/// times always sum to its root span.
fn self_times(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut child = vec![0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ns();
        }
    }
    let scale: Vec<f64> = spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| {
            if s.name == "sampling.windows" && c > 0.0 {
                (s.ns() / c).min(1.0)
            } else {
                1.0
            }
        })
        .collect();
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                s.ns() - scale[i] * child[i],
                s.parent.map_or(1.0, |p| scale[p]),
            )
        })
        .collect()
}

/// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
fn write_chrome_trace(
    path: &std::path::Path,
    traced: &[Traced],
    epoch: Instant,
) -> std::io::Result<()> {
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut events = Vec::new();
    let mut base = 0;
    for (cell, t) in traced.iter().enumerate() {
        for s in &t.spans.0 {
            events.push(Json::obj(vec![
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(us(s.start))),
                ("dur", Json::from(us(s.end) - us(s.start))),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.thread as u64)),
                (
                    "args",
                    Json::obj(vec![
                        ("cell", Json::from(cell as u64)),
                        (
                            "parent",
                            s.parent
                                .map_or(Json::Null, |p| Json::from((base + p) as u64)),
                        ),
                    ]),
                ),
            ]));
        }
        base += t.spans.0.len();
    }
    let doc = Json::obj(vec![("traceEvents", Json::Arr(events))]);
    std::fs::write(path, doc.to_compact())
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

/// Per-layer metrics for `grid` at `size`: untraced `run_manifest`
/// passes for `seconds` (at least two) for the pool and trace-cache
/// layers and the reference results, the traced execution, and the
/// probes. `serve_loop` (request seed, seconds, shape) is the closed
/// loop that measures the protocol layers.
pub fn analyse(
    grid: &Grid,
    size: &WorkloadSize,
    sampled: bool,
    jobs: usize,
    seconds: f64,
    serve_loop: (u64, f64, serve::Shape),
    trace_tag: &str,
) -> Result<Outcome, String> {
    let scfg = sampled.then(grid::default_sampling);
    sampling::set_cli(Some(scfg));
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up, with emission timed per stream.
    let setup = grid::record(grid, size, jobs, 1)?;
    let insts: u64 = setup.recs.iter().map(|r| r.len() as u64).sum();
    let emit_ns: f64 = setup.emit.iter().map(|d| d.as_nanos() as f64).sum();
    m.put("emit.ns_per_inst", emit_ns / insts as f64, "ns");

    // Untraced passes: pool and trace-cache behaviour, reference results.
    let before = experiment::drain_pool_metrics();
    let passes = grid::timed_passes(grid, size, seconds, 2);
    let after = experiment::drain_pool_metrics();
    let delta = |k: &str| (after.counter(k) - before.counter(k)) as f64;
    let lookups = delta("trace_cache.hits") + delta("trace_cache.misses");
    m.put(
        "trace_cache.hit_ratio",
        delta("trace_cache.hits") / lookups.max(1.0),
        "ratio",
    );
    m.put(
        "trace_cache.resident_mb",
        after.counter("trace_cache.resident_bytes") as f64 / (1 << 20) as f64,
        "MB",
    );
    let busy: Vec<f64> = passes
        .iter()
        .map(|p| p.cell_secs.iter().sum::<f64>() / (p.wall * jobs as f64))
        .collect();
    m.put("pool.busy_frac", util::median(&busy), "ratio");
    let tails: Vec<f64> = passes
        .iter()
        .map(|p| {
            let idle_from = p
                .done_at
                .get(p.done_at.len().saturating_sub(jobs))
                .copied()
                .unwrap_or(0.0);
            p.wall - idle_from
        })
        .collect();
    m.put("pool.tail_s", util::median(&tails), "s");
    let committed = (size == &WorkloadSize::study())
        .then(grid::committed_fig1)
        .transpose()?;
    let mut digest = None;
    for pass in &passes {
        let verdict = grid::verify(grid, &setup, pass, sampled, committed.as_deref());
        attempted += grid.cells.len() as u64;
        failed += verdict.failed_cells as u64;
        failures.extend(verdict.failures);
        match &digest {
            None => {
                println!("digest seed {}: {}", size.seed, verdict.digest);
                digest = Some(verdict.digest);
            }
            Some(d) if *d != verdict.digest => failures.push("passes disagree".into()),
            Some(_) => {}
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let untraced_wall = util::median(&walls);
    let pass = &passes[0];

    // Traced execution on the pool `run_manifest` uses, `jobs` workers.
    let epoch = Instant::now();
    let work: Vec<_> = grid
        .cells
        .iter()
        .map(|cell| {
            let rec = &*setup.recs[cell.stream];
            move || traced_cell(cell, rec, scfg, jobs)
        })
        .collect();
    let traced = pool::run_ordered(jobs, work);
    let traced_end = Instant::now();
    let traced_wall = (traced_end - epoch).as_secs_f64();
    let mut ckpt = Ckpt::default();
    let mut detailed = 0u64;
    for ((t, u), cell) in traced.iter().zip(&pass.cells).zip(&grid.cells) {
        attempted += 1;
        ckpt.add(&t.ckpt);
        let same = match (&t.result, u) {
            (Ok((ts, _)), Ok(us)) => {
                let (mut a, mut b) = (Digest::new(), Digest::new());
                grid::digest_summary(&mut a, ts);
                grid::digest_summary(&mut b, us);
                a.hex() == b.hex()
            }
            _ => false,
        };
        if let Ok((_, d)) = &t.result {
            detailed += d;
        }
        if !same {
            failed += 1;
            failures.push(format!("{}: traced run differs from untraced", cell.label));
        }
    }
    let trace_path = util::repo_root()
        .join(".bench_work")
        .join(format!("trace-{trace_tag}-seed{}.json", size.seed));
    if let Err(e) = write_chrome_trace(&trace_path, &traced, epoch) {
        eprintln!("perfbench: writing {}: {e}", trace_path.display());
    }

    // Probes of the layers a cell reaches only through the pipeline.
    let probes = pool::run_ordered(
        jobs,
        setup
            .recs
            .iter()
            .map(|rec| move || probe_stream(rec))
            .collect(),
    );
    let replay_rate: Vec<f64> = probes
        .iter()
        .map(|p| p.replay_ns / p.insts as f64)
        .collect();
    let mem_rate: Vec<f64> = probes
        .iter()
        .map(|p| p.mem_default.ns / p.mem_default.accesses.max(1) as f64)
        .collect();
    let refs_per_inst: Vec<f64> = probes
        .iter()
        .map(|p| p.refs as f64 / p.insts as f64)
        .collect();
    let sum = |f: &dyn Fn(&Probe) -> f64| probes.iter().map(f).sum::<f64>();
    m.put(
        "trace.replay_ns_per_inst",
        sum(&|p| p.replay_ns) / sum(&|p| p.insts as f64),
        "ns",
    );
    m.put(
        "trace.decode_mb_s",
        sum(&|p| p.encoded_bytes as f64) / sum(&|p| p.decode_secs) / 1e6,
        "MB/s",
    );
    m.put(
        "mem.default.ns_per_access",
        sum(&|p| p.mem_default.ns) / sum(&|p| p.mem_default.accesses as f64),
        "ns",
    );
    m.put(
        "mem.accept_ratio",
        sum(&|p| p.mem_default.accesses as f64) / sum(&|p| p.mem_default.attempts as f64),
        "ratio",
    );
    m.put(
        "mem.l1_1k.ns_per_access",
        sum(&|p| p.mem_1k.ns) / sum(&|p| p.mem_1k.accesses as f64),
        "ns",
    );
    m.put(
        "mem.l1_1k.miss_per_kinst",
        1e3 * sum(&|p| p.mem_1k.l1_misses as f64) / sum(&|p| p.insts as f64),
        "1/kinst",
    );

    // Layer self times. A pipeline span splits into replay, memory
    // system and core by the probes' rates on the same stream; the
    // `cpu.*` rates use thread time, the ledger weighted time.
    let mut ledger: Vec<(&str, f64)> = [
        "ledger.replay_s",
        "ledger.mem_s",
        "ledger.cpu_s",
        "ledger.warming_s",
        "ledger.ckpt_s",
        "ledger.render_s",
        "ledger.other_s",
    ]
    .iter()
    .map(|&n| (n, 0.0))
    .collect();
    let mut add = |name: &str, ns: f64| {
        if let Some(e) = ledger.iter_mut().find(|e| e.0 == name) {
            e.1 += ns;
        }
    };
    // Per architecture: thread ns, split ns, instructions, cycles.
    let mut per_arch = [(0f64, 0f64, 0u64, 0u64); 3];
    let mut self_ns: Vec<(&'static str, f64)> = Vec::new();
    for (t, cell) in traced.iter().zip(&grid.cells) {
        let stream = cell.stream;
        for (s, (own, weight)) in t.spans.0.iter().zip(self_times(&t.spans.0)) {
            match self_ns.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => e.1 += own,
                None => self_ns.push((s.name, own)),
            }
            let w = own * weight;
            match s.name {
                "cpu.inorder1" | "cpu.inorder4" | "cpu.ooo4" => {
                    let r = s.insts as f64 * replay_rate[stream];
                    let mm = s.insts as f64 * refs_per_inst[stream] * mem_rate[stream];
                    add("ledger.replay_s", r * weight);
                    add("ledger.mem_s", mm * weight);
                    add("ledger.cpu_s", w - (r + mm) * weight);
                    let a = &mut per_arch[Arch::all()
                        .iter()
                        .position(|&a| arch_span(a) == s.name)
                        .expect("a named machine")];
                    a.0 += own;
                    a.1 += r + mm;
                    a.2 += s.insts;
                    a.3 += s.cycles;
                }
                "cpu.warming" => add("ledger.warming_s", w),
                "ckpt.encode" | "ckpt.restore" => add("ledger.ckpt_s", w),
                "render" => add("ledger.render_s", w),
                _ => add("ledger.other_s", w),
            }
        }
    }
    for (arch, (ns, split, n, cycles)) in Arch::all().into_iter().zip(per_arch) {
        let name = arch_span(arch);
        m.put(
            &format!("{name}.ns_per_inst"),
            (ns - split) / n.max(1) as f64,
            "ns",
        );
        if arch == Arch::Ooo4 {
            m.put(
                "cpu.ooo4.ns_per_cycle",
                (ns - split) / cycles.max(1) as f64,
                "ns",
            );
        }
    }
    let self_of = |name: &str| self_ns.iter().find(|e| e.0 == name).map_or(0.0, |e| e.1);

    // Sampling layers: from the traced cells when sampled, else probed.
    if !sampled {
        let scfg = grid::default_sampling();
        let probed = pool::run_ordered(
            jobs,
            setup
                .recs
                .iter()
                .map(|rec| move || ckpt_probe(rec, scfg))
                .collect(),
        );
        for p in &probed {
            ckpt.add(p);
        }
    } else {
        ckpt.encode_ns = self_of("ckpt.encode");
        ckpt.restore_ns = self_of("ckpt.restore");
        ckpt.warm_ns = self_of("cpu.warming");
        ckpt.warm_insts = traced
            .iter()
            .flat_map(|t| &t.spans.0)
            .filter(|s| s.name == "cpu.warming")
            .map(|s| s.insts)
            .sum();
    }
    m.put(
        "cpu.warming.ns_per_inst",
        ckpt.warm_ns / ckpt.warm_insts.max(1) as f64,
        "ns",
    );
    m.put(
        "ckpt.encode_us",
        ckpt.encode_ns / 1e3 / ckpt.encodes.max(1) as f64,
        "us",
    );
    m.put(
        "ckpt.restore_us",
        ckpt.restore_ns / 1e3 / ckpt.restores.max(1) as f64,
        "us",
    );
    m.put(
        "ckpt.bytes",
        ckpt.bytes as f64 / ckpt.encodes.max(1) as f64,
        "bytes",
    );
    let cell_insts: u64 = grid
        .cells
        .iter()
        .map(|c| setup.recs[c.stream].len() as u64)
        .sum();
    m.put(
        "sampling.detail_frac",
        detailed as f64 / cell_insts.max(1) as f64,
        "ratio",
    );
    m.put(
        "render.us_per_cell",
        self_of("render") / 1e3 / grid.cells.len() as f64,
        "us",
    );

    // The ledger, in seconds of traced wall clock (worker time / jobs).
    // Besides the layers: pool idle (a worker before its first cell or
    // after its last, the queue empty) and the time between two cells
    // on a worker that no span covers. These parts sum to the traced
    // wall clock. The claim the ledger tests is that the traced wall,
    // less the tracing overhead (calibrated span cost × spans), is the
    // untraced wall; `ledger.unexplained_s` is how far it is off.
    let w = jobs as f64;
    let mut roots: Vec<(usize, Instant, Instant)> = traced
        .iter()
        .flat_map(|t| t.spans.0.iter().filter(|s| s.parent.is_none()))
        .map(|s| (s.thread, s.start, s.end))
        .collect();
    roots.sort_by_key(|r| (r.0, r.1));
    let threads: BTreeSet<usize> = roots.iter().map(|r| r.0).collect();
    let mut idle_ns = jobs.saturating_sub(threads.len()) as f64 * traced_wall * 1e9;
    let mut gap_ns = 0f64;
    for t in threads {
        let mine: Vec<_> = roots.iter().filter(|r| r.0 == t).collect();
        let (first, last) = (mine[0], mine[mine.len() - 1]);
        idle_ns += (first.1 - epoch).as_nanos() as f64;
        idle_ns += traced_end.saturating_duration_since(last.2).as_nanos() as f64;
        for pair in mine.windows(2) {
            gap_ns += pair[1].1.saturating_duration_since(pair[0].2).as_nanos() as f64;
        }
    }
    ledger.push(("ledger.pool_idle_s", idle_ns));
    ledger.push(("ledger.uncovered_s", gap_ns));
    let mut accounted = 0.0;
    for (name, ns) in ledger {
        m.put(name, secs(ns) / w, "s");
        accounted += secs(ns) / w;
    }
    let n_spans: usize = traced.iter().map(|t| t.spans.0.len()).sum();
    let overhead = secs(span_cost_ns() * n_spans as f64) / w;
    let residual = untraced_wall - (traced_wall - overhead);
    m.put("ledger.traced_wall_s", traced_wall, "s");
    m.put("ledger.untraced_wall_s", untraced_wall, "s");
    m.put("ledger.overhead_s", overhead, "s");
    m.put("ledger.unexplained_s", residual.abs(), "s");
    eprintln!(
        "ledger: parts {accounted:.3} s of traced {traced_wall:.3} s; tracing overhead {overhead:.6} s ({n_spans} spans); untraced median {untraced_wall:.3} s over {} passes {walls:?}; unexplained {residual:+.3} s ({:+.1} %)",
        passes.len(),
        100.0 * residual / untraced_wall
    );

    m.put(
        "sampled_err_pct",
        sampled_err_pct(grid, size, pass, scfg),
        "%",
    );
    m.put("serve.parse_us", parse_us(grid)?, "us");
    failures.extend(store_probe(grid, size, pass, &mut m)?);

    let (seed, seconds, shape) = serve_loop;
    let s = serve::session(seed, seconds, jobs, shape)?;
    failures.extend(s.failures);
    failed += s.failed;
    attempted += s.attempted;
    for metric in s.metrics.0 {
        if metric.name.starts_with("serve") {
            m.put(&metric.name, metric.value, metric.unit);
        }
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        failures,
    })
}

/// Mean relative cycle error of the sampled estimate against exact
/// simulation at the same seed: the committed figure at the study seed,
/// otherwise an extra pass in the other mode.
fn sampled_err_pct(
    grid: &Grid,
    size: &WorkloadSize,
    pass: &grid::Pass,
    scfg: Option<SampleConfig>,
) -> f64 {
    let err = if scfg.is_some() {
        let committed = (size == &WorkloadSize::study())
            .then(grid::committed_fig1)
            .and_then(Result::ok);
        let exact = match committed {
            Some(refs) => grid::committed_exact(&refs),
            None => {
                sampling::set_cli(Some(None));
                grid::pass_cycles(&grid::run_pass(grid, size))
            }
        };
        grid::mean_err_pct(&grid::pass_cycles(pass), &exact)
    } else {
        sampling::set_cli(Some(Some(grid::default_sampling())));
        let est = grid::pass_cycles(&grid::run_pass(grid, size));
        grid::mean_err_pct(&est, &grid::pass_cycles(pass))
    };
    sampling::set_cli(Some(scfg));
    err
}

/// Microseconds per `Request::parse` of this workload's cell requests.
fn parse_us(grid: &Grid) -> Result<f64, String> {
    let lines: Vec<String> = grid
        .cells
        .iter()
        .map(|c| serve::cell_line("fig1", &c.label))
        .collect();
    let reps = 200;
    let t = Instant::now();
    for _ in 0..reps {
        for l in &lines {
            std::hint::black_box(proto::Request::parse(std::hint::black_box(l))?);
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / (reps * lines.len()) as f64)
}

/// `store::save` and `store::load` of every cell's result under its own
/// key, in a scratch store that is removed afterwards. Returns the
/// cells whose round trip failed.
fn store_probe(
    grid: &Grid,
    size: &WorkloadSize,
    pass: &grid::Pass,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let dir = util::work_dir("store");
    store::set_cli_dir(&dir.to_string_lossy());
    let mut failures = Vec::new();
    let (mut save_ns, mut load_ns, mut bytes) = (0f64, 0f64, 0u64);
    for (cell, r) in grid.cells.iter().zip(&pass.cells) {
        let Ok(s) = r else { continue };
        let key = store::timed_key(cell.bench.name(), &cell.cpu, &cell.mem, size, cell.variant)
            .ok_or("the store did not enable")?;
        let entry = store::Entry::Timed(Box::new(s.clone()));
        let t = Instant::now();
        store::save(&key, &entry);
        save_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let back = store::load(&key);
        load_ns += t.elapsed().as_nanos() as f64;
        match back {
            Some(store::Entry::Timed(b)) if b.cycles() == s.cycles() => {}
            _ => failures.push(format!("{}: store round trip lost the cell", cell.label)),
        }
        bytes += std::fs::metadata(dir.join(key.file_name())).map_or(0, |md| md.len());
    }
    store::set_cli_disabled();
    let _ = std::fs::remove_dir_all(&dir);
    let n = grid.cells.len() as f64;
    m.put("store.save_us", save_ns / 1e3 / n, "us");
    m.put("store.load_us", load_ns / 1e3 / n, "us");
    m.put("store.entry_bytes", bytes as f64 / n, "bytes");
    Ok(failures)
}

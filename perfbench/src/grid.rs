//! The grid workloads: the Figure 1 manifest, exact or sampled, run
//! through `visim::experiment::run_manifest` after its instruction
//! streams were recorded into the trace cache.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use media_kernels::Variant;
use visim::experiment::{self, ManifestOutcome};
use visim::manifest::{CellSpec, Manifest};
use visim::sampling::{self, SampleConfig};
use visim::{artifact, trace_cache, Arch, Bench, WorkloadSize};
use visim_cpu::{CpuConfig, Summary};
use visim_mem::MemConfig;
use visim_obs::Json;
use visim_trace::{Recorded, Recorder};
use visim_util::pool;

use crate::util::{self, Digest, Metrics};

/// The seed `WorkloadSize::study()` uses, at which the committed
/// `results/json/fig1.json` was produced.
pub const STUDY_SEED: u64 = 7;

/// How many times set-up (recording every stream) is repeated; the
/// median is reported. The exact workload's streams record in about a
/// second, so it can afford more repetitions.
const SETUP_REPS: usize = 3;
const SETUP_REPS_EXACT: usize = 5;

/// Trace-cache budget: every Figure 1 stream at study size (about
/// 2.3 GB recorded) stays resident, so the timed phase only replays.
pub const TRACE_CACHE_MB: u64 = 8192;

/// Per-cell counters that measure the host, not the model; left out of
/// the digest.
const RUN_VARYING: [&str; 5] = [
    "cell.emit_micros",
    "cell.simulate_micros",
    "cell.trace_replay",
    "cell.trace_cache_hit",
    "cell.store_hit",
];

/// One timed cell of the manifest.
#[derive(Clone)]
pub struct Cell {
    pub label: String,
    pub bench: Bench,
    pub arch: Arch,
    pub cpu: CpuConfig,
    pub mem: MemConfig,
    pub variant: Variant,
    /// Index into [`Grid::streams`].
    pub stream: usize,
}

impl Cell {
    /// The cell's `visim-results-v2` record, as the figure binary
    /// writes it.
    pub fn render(&self, s: &Summary) -> Json {
        artifact::timed_cell(
            self.bench.name(),
            artifact::fig1_config(self.arch, self.variant.vis),
            s,
        )
    }
}

/// The Figure 1 manifest and the streams its cells replay.
pub struct Grid {
    pub manifest: Manifest,
    pub cells: Vec<Cell>,
    pub streams: Vec<(Bench, Variant)>,
}

impl Grid {
    pub fn fig1() -> Grid {
        let manifest = Manifest::builtin("fig1").expect("the fig1 manifest is built in");
        let mut streams: Vec<(Bench, Variant)> = Vec::new();
        let mut cells = Vec::new();
        for spec in manifest.cells() {
            let CellSpec::Timed {
                label,
                bench,
                cpu,
                mem,
                variant,
            } = spec
            else {
                panic!("fig1 holds only timed cells");
            };
            let arch = Arch::all()
                .into_iter()
                .find(|a| a.cpu() == cpu)
                .expect("fig1 cells use the three named machines");
            let stream = match streams.iter().position(|s| *s == (bench, variant)) {
                Some(i) => i,
                None => {
                    streams.push((bench, variant));
                    streams.len() - 1
                }
            };
            cells.push(Cell {
                label,
                bench,
                arch,
                cpu,
                mem,
                variant,
                stream,
            });
        }
        Grid {
            manifest,
            cells,
            streams,
        }
    }
}

/// The input size of a grid workload. Sampling needs the study size's
/// long streams; exact simulation runs at half the study size's linear
/// scale (a quarter of its instructions), so that at least two whole
/// `run_manifest` passes fit in one run: with one study-size pass per
/// run, any host slowdown during it landed whole in the result.
pub fn workload_size(seed: u64, sampled: bool) -> WorkloadSize {
    let study = WorkloadSize {
        seed,
        ..WorkloadSize::study()
    };
    if sampled {
        return study;
    }
    WorkloadSize {
        image_w: study.image_w / 2,
        image_h: study.image_h / 2,
        dotprod_n: study.dotprod_n / 4,
        video_w: study.video_w / 2,
        video_h: study.video_h / 2,
        ..study
    }
}

/// The default sampling geometry (`--sample 1`).
pub fn default_sampling() -> SampleConfig {
    sampling::parse_spec("1")
        .expect("the default geometry parses")
        .expect("the default geometry samples")
}

/// The recorded streams and how long recording took.
pub struct Setup {
    pub recs: Vec<Arc<Recorded>>,
    /// Wall clock of each full recording pass.
    pub rep_secs: Vec<f64>,
    /// Per-stream emission time of the last pass.
    pub emit: Vec<Duration>,
}

/// Record every stream `reps` times on `jobs` threads (`Bench::run`
/// into a `Recorder`) and keep the last recording in the trace cache.
pub fn record(grid: &Grid, size: &WorkloadSize, jobs: usize, reps: usize) -> Result<Setup, String> {
    trace_cache::set_cli_budget_mb(TRACE_CACHE_MB);
    let mut rep_secs = Vec::new();
    let mut last = Vec::new();
    for _ in 0..reps.max(1) {
        // Free the previous recording before the next one grows.
        last.clear();
        let t0 = Instant::now();
        let work: Vec<_> = grid
            .streams
            .iter()
            .map(|&(bench, variant)| {
                move || {
                    let mut rec = Recorder::new(trace_cache::budget_bytes());
                    let t = Instant::now();
                    bench.run(&mut rec, size, variant);
                    (rec.finish(), t.elapsed())
                }
            })
            .collect();
        last = pool::run_ordered(jobs, work);
        rep_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut recs = Vec::new();
    let mut emit = Vec::new();
    for (&(bench, variant), (rec, took)) in grid.streams.iter().zip(last) {
        let rec =
            Arc::new(rec.ok_or_else(|| {
                format!("{}: stream exceeds the trace-cache budget", bench.name())
            })?);
        let key = trace_cache::key_for(bench.name(), size, variant)
            .ok_or("the trace cache is disabled")?;
        trace_cache::store(&key, &rec, took);
        recs.push(rec);
        emit.push(took);
    }
    let bytes: usize = recs.iter().map(|r| r.approx_bytes()).sum();
    eprintln!(
        "set-up: {} streams, {} instructions, {:.0} MB recorded",
        recs.len(),
        recs.iter().map(|r| r.len()).sum::<usize>(),
        bytes as f64 / 1e6
    );
    Ok(Setup {
        recs,
        rep_secs,
        emit,
    })
}

/// One timed `run_manifest` pass.
pub struct Pass {
    pub wall: f64,
    /// One result per cell, in [`Grid::cells`] order.
    pub cells: Vec<Result<Summary, String>>,
    /// Per-cell pool run times, from the progress observer.
    pub cell_secs: Vec<f64>,
    /// Completion offsets from the pass start, in completion order.
    pub done_at: Vec<f64>,
}

pub fn run_pass(grid: &Grid, size: &WorkloadSize) -> Pass {
    let log: Arc<Mutex<Vec<(Instant, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    experiment::set_progress_observer(Some(Box::new(move |_, _, run_ns| {
        sink.lock()
            .expect("progress log lock")
            .push((Instant::now(), run_ns));
    })));
    let t0 = Instant::now();
    let outcome = experiment::run_manifest(&grid.manifest, size);
    let wall = t0.elapsed().as_secs_f64();
    experiment::set_progress_observer(None);
    let log = std::mem::take(&mut *log.lock().expect("progress log lock"));
    Pass {
        wall,
        cells: flatten(grid, outcome),
        cell_secs: log.iter().map(|&(_, ns)| ns as f64 / 1e9).collect(),
        done_at: log
            .iter()
            .map(|&(t, _)| t.duration_since(t0).as_secs_f64())
            .collect(),
    }
}

/// Repeat [`run_pass`] until `seconds` have passed, at least `min`
/// times.
pub fn timed_passes(grid: &Grid, size: &WorkloadSize, seconds: f64, min: usize) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min.max(1) || t0.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(grid, size));
    }
    passes
}

/// Lay a Figure 1 outcome out in manifest cell order, checking that
/// each bar is the cell it stands for.
fn flatten(grid: &Grid, outcome: ManifestOutcome) -> Vec<Result<Summary, String>> {
    let ManifestOutcome::Fig1(per_bench) = outcome else {
        panic!("the fig1 manifest yields a Figure 1 outcome");
    };
    let mut out = Vec::with_capacity(grid.cells.len());
    for (bench, result) in per_bench {
        let n = grid.cells.iter().filter(|c| c.bench == bench).count();
        match result {
            Ok(bars) => {
                for bar in bars {
                    let cell = grid.cells.get(out.len());
                    out.push(match cell {
                        Some(c)
                            if c.bench == bench
                                && c.arch == bar.arch
                                && c.variant.vis == bar.vis =>
                        {
                            Ok(bar.summary)
                        }
                        _ => Err(format!("{bench}: bar out of manifest order")),
                    });
                }
            }
            Err(e) => out.extend((0..n).map(|_| Err(e.to_string()))),
        }
    }
    out.resize_with(grid.cells.len(), || Err("missing cell".into()));
    out
}

/// Fold every simulated statistic of `s` into `d`.
pub fn digest_summary(d: &mut Digest, s: &Summary) {
    d.add(format!("{:?}|{:?}|{:?}|", s.cpu, s.mem, s.mshr_histogram).as_bytes());
    for (name, v) in s.metrics.counters() {
        if !RUN_VARYING.contains(&name) {
            d.add(format!("{name}={v};").as_bytes());
        }
    }
    for (name, h) in s.metrics.histograms() {
        d.add(format!("{name}={};", h.to_json().to_compact()).as_bytes());
    }
}

/// The committed study-seed Figure 1 cells.
pub fn committed_fig1() -> Result<Vec<Json>, String> {
    let path = util::repo_root().join("results/json/fig1.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))?;
    Ok(doc
        .get("cells")
        .and_then(Json::elements)
        .ok_or("fig1.json has no cells")?
        .to_vec())
}

fn at<'a>(j: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(j, |j, k| j.get(k))
}

/// Compare an exact cell's record with the committed one: cycles,
/// retired instructions and the Busy/FU/L1-hit/L1-miss breakdown.
pub fn matches_committed(rendered: &Json, committed: &Json) -> Result<(), String> {
    let same = |path: &[&str]| {
        let (a, b) = (at(rendered, path), at(committed, path));
        match (a.and_then(Json::as_f64), b.and_then(Json::as_f64)) {
            (Some(x), Some(y)) if x == y => Ok(()),
            _ => Err(format!(
                "{}: {} is {:?}, committed {:?}",
                at(committed, &["benchmark"])
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
                path.join("."),
                a.map(Json::to_compact),
                b.map(Json::to_compact)
            )),
        }
    };
    if rendered.get("benchmark").map(Json::to_compact)
        != committed.get("benchmark").map(Json::to_compact)
        || rendered.get("config").map(Json::to_compact)
            != committed.get("config").map(Json::to_compact)
    {
        return Err("cell order differs from the committed figure".into());
    }
    same(&["cycles"])?;
    same(&["cpu", "retired"])?;
    for part in ["busy", "fu_stall", "l1_hit", "l1_miss"] {
        same(&["cpu", "breakdown", part])?;
    }
    Ok(())
}

/// Simulated cycles of every cell of a pass (0 for a failed cell).
pub fn pass_cycles(p: &Pass) -> Vec<u64> {
    p.cells
        .iter()
        .map(|r| r.as_ref().map_or(0, Summary::cycles))
        .collect()
}

/// Exact cycles of every committed cell (0 where a cell lacks them).
pub fn committed_exact(refs: &[Json]) -> Vec<u64> {
    refs.iter()
        .map(|c| committed_cycles(c).map_or(0, |x| x.0))
        .collect()
}

/// Exact cycles and retired instructions of a committed cell.
pub fn committed_cycles(committed: &Json) -> Option<(u64, u64)> {
    Some((
        at(committed, &["cycles"])?.as_u64()?,
        at(committed, &["cpu", "retired"])?.as_u64()?,
    ))
}

/// Checks that hold at any seed: every instruction of the stream
/// retired, and the cycle attribution is exhaustive.
pub fn invariants(cell: &Cell, s: &Summary, rec: &Recorded) -> Result<(), String> {
    if s.cpu.retired != rec.len() as u64 {
        return Err(format!(
            "{}: retired {} of a {}-instruction stream",
            cell.label,
            s.cpu.retired,
            rec.len()
        ));
    }
    let total = s.cpu.breakdown().total();
    if (total - s.cycles() as f64).abs() > 1e-6 * (s.cycles() as f64).max(1.0) {
        return Err(format!(
            "{}: breakdown sums to {total}, not {} cycles",
            cell.label,
            s.cycles()
        ));
    }
    Ok(())
}

/// Per-cell correctness verdicts and the pass digest.
pub struct Verdict {
    pub failures: Vec<String>,
    pub failed_cells: usize,
    pub digest: String,
}

/// Check one pass: invariants at any seed, and, given the committed
/// study-seed figure, every cell against it (sampled runs check their
/// functional counts only).
pub fn verify(
    grid: &Grid,
    setup: &Setup,
    pass: &Pass,
    sampled: bool,
    committed: Option<&[Json]>,
) -> Verdict {
    let mut failures = Vec::new();
    let mut failed_cells = 0;
    let mut d = Digest::new();
    for (i, (cell, result)) in grid.cells.iter().zip(&pass.cells).enumerate() {
        let check = result.as_ref().map_err(Clone::clone).and_then(|s| {
            digest_summary(&mut d, s);
            invariants(cell, s, &setup.recs[cell.stream])?;
            match committed {
                Some(refs) => {
                    let reference = refs.get(i).ok_or("committed figure is short")?;
                    if sampled {
                        let (_, retired) =
                            committed_cycles(reference).ok_or("committed cell lacks cycles")?;
                        if retired != s.cpu.retired {
                            return Err(format!("{}: retired differs from exact", cell.label));
                        }
                        Ok(())
                    } else {
                        matches_committed(&cell.render(s), reference)
                    }
                }
                None => Ok(()),
            }
        });
        if let Err(e) = check {
            failed_cells += 1;
            failures.push(e);
        }
    }
    Verdict {
        failures,
        failed_cells,
        digest: d.hex(),
    }
}

/// Mean relative cycle error (percent) of `sampled` against `exact`.
pub fn mean_err_pct(sampled: &[u64], exact: &[u64]) -> f64 {
    let errs: Vec<f64> = sampled
        .iter()
        .zip(exact)
        .map(|(&s, &e)| (s as f64 - e as f64).abs() / (e as f64).max(1.0))
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Result of a workload run.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The untraced grid workload: set up, then repeat `run_manifest`
/// passes until `seconds` have elapsed (at least two), and check every
/// pass.
pub fn run_untraced(
    seed: u64,
    seconds: f64,
    jobs: usize,
    sampled: bool,
) -> Result<Outcome, String> {
    let size = workload_size(seed, sampled);
    let grid = Grid::fig1();
    sampling::set_cli(Some(sampled.then(default_sampling)));
    let reps = if sampled {
        SETUP_REPS
    } else {
        SETUP_REPS_EXACT
    };
    let setup = record(&grid, &size, jobs, reps)?;
    let committed = if seed == STUDY_SEED {
        Some(committed_fig1()?)
    } else {
        None
    };
    // Only the sampled workload runs at the committed figure's size.
    let pass_refs = committed.as_deref().filter(|_| sampled);
    let before = experiment::drain_pool_metrics();
    let passes = timed_passes(&grid, &size, seconds, 2);
    let after = experiment::drain_pool_metrics();
    let mut out = Outcome {
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let misses = after.counter("trace_cache.misses") - before.counter("trace_cache.misses");
    if misses != 0 {
        out.failures
            .push(format!("{misses} trace-cache misses in the timed phase"));
    }
    let mut first_digest = None;
    for pass in &passes {
        let v = verify(&grid, &setup, pass, sampled, pass_refs);
        out.attempted += grid.cells.len() as u64;
        out.failed += v.failed_cells as u64;
        out.failures.extend(v.failures);
        match &first_digest {
            None => {
                println!(
                    "digest {} seed {seed}: {}",
                    if sampled {
                        "fig1-sampled"
                    } else {
                        "fig1-exact"
                    },
                    v.digest
                );
                first_digest = Some(v.digest);
            }
            Some(d) if *d != v.digest => out.failures.push("passes disagree".into()),
            Some(_) => {}
        }
    }
    if let Some(refs) = pass_refs {
        let err = mean_err_pct(&pass_cycles(&passes[0]), &committed_exact(refs));
        println!("sampled_err_pct {err:.4}");
    }
    let retired: u64 = passes[0]
        .cells
        .iter()
        .map(|r| r.as_ref().map_or(0, |s| s.cpu.retired))
        .sum();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let mips: Vec<f64> = walls.iter().map(|w| retired as f64 / w / 1e6).collect();
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_secs.iter().map(|s| s * 1e3))
        .collect();
    let ops: Vec<f64> = walls.iter().map(|w| grid.cells.len() as f64 / w).collect();
    let m = &mut out.metrics;
    m.put("setup_s", util::median(&setup.rep_secs), "s");
    m.put("wall_s", util::median(&walls), "s");
    m.put("sim_mips", util::median(&mips), "Minst/s");
    m.put("op_p50_ms", util::quantile(&cell_ms, 0.5), "ms");
    m.put("ops_per_s", util::median(&ops), "1/s");
    m.put("peak_rss_mb", util::self_peak_rss_mb(), "MB");
    if let Some(refs) = committed.as_deref().filter(|_| !sampled) {
        // The exact workload runs below the committed figure's size:
        // check one untimed study-size pass against the figure instead.
        let study = WorkloadSize::study();
        let study_setup = record(&grid, &study, jobs, 1)?;
        let v = verify(
            &grid,
            &study_setup,
            &run_pass(&grid, &study),
            false,
            Some(refs),
        );
        out.attempted += grid.cells.len() as u64;
        out.failed += v.failed_cells as u64;
        out.failures.extend(v.failures);
        println!(
            "study-size pass against results/json/fig1.json: {} of {} cells differ",
            v.failed_cells,
            grid.cells.len()
        );
    }
    eprintln!(
        "{} seed {seed}: {} pass(es), walls {:?}",
        if sampled {
            "fig1-sampled"
        } else {
            "fig1-exact"
        },
        passes.len(),
        walls
    );
    Ok(out)
}

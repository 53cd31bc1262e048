//! The `serve-mixed` workload: a closed loop of clients on persistent
//! TCP connections to a `visim-serve` daemon, timed at the client.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use visim::manifest::{CellSpec, Manifest};
use visim::WorkloadSize;
use visim::{experiment, sampling};
use visim_obs::Json;
use visim_serve::daemon::{self, DaemonConfig};
use visim_util::pool;
use visim_util::rng::Rng;

use crate::util::{self, Metrics};

/// Concurrent client connections.
const CLIENTS: usize = 2;
/// Every `MISS_EVERY`-th request names a cell that is not stored yet.
const MISS_EVERY: usize = 8;
/// Manifest whose tiny cells fill the store before each session.
const FILL: &str = "fig1";
/// Manifests whose tiny cells the miss requests name.
const MISS_FROM: [&str; 3] = ["sweep_l1", "sweep_l2", "fig3"];
/// No session starts after this many times `seconds`, so a fast daemon
/// (short sessions) does not spend the run on set-ups.
const ELAPSED_CAP: f64 = 4.0;

/// Entry point of the daemon child process: the library daemon with
/// the store in `store_dir`.
pub fn daemon_main(store_dir: &str, addr_file: &str) -> i32 {
    // Exit with the benchmark: a parent killed before it could shut the
    // daemon down must not leave it running.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
    });
    visim::store::set_cli_dir(store_dir);
    let cfg = DaemonConfig {
        port: 0,
        addr_file: Some(addr_file.to_string()),
        trace_out: None,
    };
    match daemon::run(&cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            1
        }
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start a daemon with a fresh store under `dir` and wait until it
    /// listens.
    pub fn start(dir: &Path, jobs: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir.join("results/json")).map_err(|e| e.to_string())?;
        let addr_file = dir.join("addr");
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("serve-daemon")
            .arg(dir.join("store"))
            .arg(&addr_file)
            .current_dir(dir)
            .env("VISIM_JOBS", jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(addr) = Json::parse(text.trim())
                    .ok()
                    .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string))
                {
                    d.addr = addr;
                    return Ok(d);
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not start listening within 30 s".into())
    }

    /// Peak resident set of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        util::vm_hwm_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.request(r#"{"op":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A persistent client connection.
pub struct Conn {
    out: TcpStream,
    input: BufReader<TcpStream>,
}

/// One request's reply, timed at the client.
pub struct Reply {
    pub events: Vec<Json>,
    /// Send to first reply line.
    pub first: Duration,
    /// Send to terminal event.
    pub total: Duration,
    /// A terminal event arrived.
    pub terminated: bool,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        out.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let input = BufReader::new(out.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { out, input })
    }

    /// Send one request line and read its events up to the terminal
    /// one.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        let sent = Instant::now();
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut events = Vec::new();
        let mut first = None;
        loop {
            let mut buf = String::new();
            let n = self
                .input
                .read_line(&mut buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Ok(Reply {
                    events,
                    first: first.unwrap_or_default(),
                    total: sent.elapsed(),
                    terminated: false,
                });
            }
            first.get_or_insert_with(|| sent.elapsed());
            let ev = Json::parse(buf.trim()).map_err(|e| format!("bad event line: {e:?}"))?;
            let kind = ev
                .get("event")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            events.push(ev);
            if matches!(kind.as_str(), "done" | "error" | "pong" | "stats" | "bye") {
                return Ok(Reply {
                    events,
                    first: first.unwrap_or_default(),
                    total: sent.elapsed(),
                    terminated: true,
                });
            }
        }
    }
}

/// The request line for one cell.
pub fn cell_line(manifest: &str, label: &str) -> String {
    Json::obj(vec![
        ("op", Json::from("cell")),
        ("name", Json::from(manifest)),
        ("label", Json::from(label)),
        ("size", Json::from("tiny")),
    ])
    .to_compact()
}

/// The cell events of a reply: (label, status ok, cycles, from_store).
fn cell_events(r: &Reply) -> Vec<(String, bool, Option<u64>, bool)> {
    r.events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("cell"))
        .map(|e| {
            (
                e.get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                e.get("status").and_then(Json::as_str) == Some("ok"),
                e.get("cycles").and_then(Json::as_u64),
                e.get("from_store") == Some(&Json::Bool(true)),
            )
        })
        .collect()
}

/// Fill the daemon's store with every tiny cell of [`FILL`]; returns
/// the cycles each cell first computed.
fn fill(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut c = Conn::open(addr)?;
    let line = Json::obj(vec![
        ("op", Json::from("manifest")),
        ("name", Json::from(FILL)),
        ("size", Json::from("tiny")),
    ])
    .to_compact();
    let reply = c.request(&line)?;
    let mut out = BTreeMap::new();
    for (label, ok, cycles, _) in cell_events(&reply) {
        match (ok, cycles) {
            (true, Some(cy)) => {
                out.insert(label, cy);
            }
            _ => return Err(format!("fill: cell {label} failed")),
        }
    }
    if !reply.terminated || out.len() != Manifest::builtin(FILL).map_or(0, |m| m.cells().len()) {
        return Err("fill did not complete".into());
    }
    Ok(out)
}

/// A cell a request names.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Target {
    manifest: &'static str,
    label: String,
}

/// Every tiny cell of [`MISS_FROM`] whose store identity neither the
/// fill nor an earlier cell has, grouped by manifest. Cells identical to
/// a filled one (the default cache size of a sweep, the non-prefetching
/// half of Figure 3) would be hits.
fn miss_pool() -> Vec<Vec<Target>> {
    let tiny = WorkloadSize::tiny();
    let mut seen: BTreeSet<String> = Manifest::builtin(FILL)
        .expect("fill manifest")
        .cells()
        .iter()
        .map(|c| c.identity(&tiny))
        .collect();
    let mut pool = Vec::new();
    for m in MISS_FROM {
        let mut group = Vec::new();
        for c in Manifest::builtin(m).expect("miss manifest").cells() {
            if seen.insert(c.identity(&tiny)) {
                group.push(Target {
                    manifest: m,
                    label: c.label().to_string(),
                });
            }
        }
        pool.push(group);
    }
    pool
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// How a run splits into sessions.
#[derive(Clone, Copy)]
pub struct Shape {
    /// The miss pool is dealt into this many equal parts; a session
    /// uses one part, so it makes `MISS_EVERY` × (pool / parts)
    /// requests.
    pub parts: usize,
    /// Sessions run even when `seconds` has passed.
    pub min_sessions: usize,
}

/// The `serve-mixed` workload: sessions of about 200 requests, each
/// naming a quarter of the miss pool; at least four, so that every run
/// simulates the whole pool, whatever the seed.
pub const WORKLOAD: Shape = Shape {
    parts: 4,
    min_sessions: 4,
};

/// The short loop a traced grid run makes for the protocol layers.
pub const PROBE: Shape = Shape {
    parts: 12,
    min_sessions: 1,
};

/// A planned request.
#[derive(Clone)]
struct Planned {
    target: Target,
    miss: bool,
}

/// Session `k`'s seeded request sequence. The pool, each manifest's
/// cells shuffled, is dealt round robin into `parts` parts of equal
/// size; session `k` takes part `k % parts` of deal `k / parts`. Every
/// [`MISS_EVERY`]-th request names the part's next cell; the others name
/// seeded filled cells. The mix is fixed, whatever the daemon's speed.
fn plan(seed: u64, k: usize, pool: &[Vec<Target>], hits: &[String], parts: usize) -> Vec<Planned> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e7e_4d15 ^ (((k / parts) as u64) << 32));
    let mut dealt = Vec::new();
    for group in pool {
        let mut g = group.clone();
        shuffle(&mut g, &mut rng);
        dealt.extend(g);
    }
    let per = dealt.len() / parts;
    let mut misses: Vec<Target> = dealt
        .into_iter()
        .skip(k % parts)
        .step_by(parts)
        .take(per)
        .collect();
    shuffle(&mut misses, &mut rng);
    let mut s = seed.wrapping_add((k as u64) << 40);
    (0..per * MISS_EVERY)
        .map(|i| {
            if i % MISS_EVERY == MISS_EVERY - 1 {
                Planned {
                    target: misses[i / MISS_EVERY].clone(),
                    miss: true,
                }
            } else {
                let h = visim_util::rng::splitmix64(&mut s) as usize % hits.len();
                Planned {
                    target: Target {
                        manifest: FILL,
                        label: hits[h].clone(),
                    },
                    miss: false,
                }
            }
        })
        .collect()
}

/// One timed request.
struct Done {
    plan: Planned,
    first_ms: f64,
    total_ms: f64,
    ok: bool,
    cycles: Option<u64>,
    from_store: bool,
}

/// Run `plan` on [`CLIENTS`] persistent connections, each sending its
/// next request when the previous reply ended. Returns the requests,
/// the client errors and the wall clock of the loop.
fn closed_loop(addr: &str, plan: &[Planned]) -> Result<(Vec<Done>, Vec<String>, f64), String> {
    let next = AtomicUsize::new(0);
    let log: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let mut conns = Vec::new();
    for _ in 0..CLIENTS {
        conns.push(Conn::open(addr)?);
    }
    let t0 = Instant::now();
    let errors: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, log) = (&next, &log);
                s.spawn(move || -> Result<(), String> {
                    while let Some(p) = plan.get(next.fetch_add(1, Ordering::SeqCst)) {
                        let reply = conn.request(&cell_line(p.target.manifest, &p.target.label))?;
                        let cells = cell_events(&reply);
                        let (ok, cycles, from_store) = match cells.as_slice() {
                            [(label, ok, cy, fs)] if *label == p.target.label => (*ok, *cy, *fs),
                            _ => (false, None, false),
                        };
                        log.lock().expect("request log lock").push(Done {
                            first_ms: reply.first.as_secs_f64() * 1e3,
                            total_ms: reply.total.as_secs_f64() * 1e3,
                            ok: ok && reply.terminated,
                            cycles,
                            from_store,
                            plan: p.clone(),
                        });
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread").err())
            .collect()
    });
    let timed = t0.elapsed().as_secs_f64();
    Ok((log.into_inner().expect("request log lock"), errors, timed))
}

/// What the closed-loop sessions of a run measured.
pub struct Session {
    pub setup_secs: Vec<f64>,
    pub peak_rss_mb: f64,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Run sessions until `seconds` of closed loop have passed, at least
/// `shape.min_sessions` of them, starting none after
/// [`ELAPSED_CAP`] × `seconds`. Each session starts a daemon with a
/// fresh store, fills it (set-up), runs its fixed request plan, and
/// shuts the daemon down. Afterwards every reply is checked against an
/// in-process run of the same cell.
pub fn session(seed: u64, seconds: f64, jobs: usize, shape: Shape) -> Result<Session, String> {
    let root = util::work_dir("serve");
    let pool = miss_pool();
    let hits: Vec<String> = Manifest::builtin(FILL)
        .expect("fill manifest")
        .cells()
        .iter()
        .map(|c| c.label().to_string())
        .collect();
    let started = Instant::now();
    let mut setup_secs = Vec::new();
    let mut walls = Vec::new();
    let mut peak_rss_mb = 0f64;
    let mut fills = Vec::new();
    let mut done = Vec::new();
    let mut failures = Vec::new();
    while walls.len() < shape.min_sessions.max(1)
        || (walls.iter().sum::<f64>() < seconds
            && started.elapsed().as_secs_f64() < ELAPSED_CAP * seconds)
    {
        let k = walls.len();
        let t0 = Instant::now();
        let d = Daemon::start(&root.join(format!("daemon{k}")), jobs)?;
        fills.push(fill(&d.addr)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
        let (log, errors, wall) = closed_loop(&d.addr, &plan(seed, k, &pool, &hits, shape.parts))?;
        peak_rss_mb = peak_rss_mb.max(d.peak_rss_mb());
        d.shutdown()?;
        walls.push(wall);
        done.extend(log);
        failures.extend(errors);
    }
    let _ = std::fs::remove_dir_all(&root);
    let timed: f64 = walls.iter().sum();

    // Reference: every cell touched, computed in this process.
    let tiny = WorkloadSize::tiny();
    let touched: BTreeSet<Target> = hits
        .iter()
        .map(|l| Target {
            manifest: FILL,
            label: l.clone(),
        })
        .chain(done.iter().map(|d| d.plan.target.clone()))
        .collect();
    // The daemon simulates exactly; so must the reference, whatever
    // this process was configured for.
    let configured = sampling::config();
    sampling::set_cli(Some(None));
    let work: Vec<_> = touched
        .iter()
        .map(|t| {
            let tiny = &tiny;
            move || -> Result<(u64, u64), String> {
                let (m, label) = (t.manifest, &t.label);
                let spec = Manifest::builtin(m)
                    .and_then(|man| man.cells().into_iter().find(|c| c.label() == label))
                    .ok_or_else(|| format!("{m}: no cell {label}"))?;
                let CellSpec::Timed {
                    bench,
                    cpu,
                    mem,
                    variant,
                    ..
                } = spec
                else {
                    return Err(format!("{m}/{label} is not a timed cell"));
                };
                experiment::try_run_timed_cfg(bench, cpu, mem, tiny, variant)
                    .map(|s| (s.cycles(), s.cpu.retired))
                    .map_err(|e| format!("{m}/{label}: {e}"))
            }
        })
        .collect();
    let computed = pool::run_ordered(jobs, work);
    sampling::set_cli(Some(configured));
    let mut want: BTreeMap<&Target, (u64, u64)> = BTreeMap::new();
    for (key, r) in touched.iter().zip(computed) {
        want.insert(key, r?);
    }
    for filled in &fills {
        for (label, cy) in filled {
            let key = Target {
                manifest: FILL,
                label: label.clone(),
            };
            if want.get(&key).map(|w| w.0) != Some(*cy) {
                failures.push(format!("fill {label}: cycles {cy} differ from in-process"));
            }
        }
    }
    let mut failed = 0u64;
    let mut simulated = 0u64;
    for d in &done {
        let w = want.get(&d.plan.target);
        let problem = if !d.ok || d.cycles != w.map(|w| w.0) {
            Some(format!(
                "reply cycles {:?}, expected {:?}",
                d.cycles,
                w.map(|w| w.0)
            ))
        } else if d.from_store == d.plan.miss {
            Some(format!(
                "planned as a {}, served {} the store",
                if d.plan.miss { "miss" } else { "hit" },
                if d.from_store { "from" } else { "without" }
            ))
        } else {
            None
        };
        if let Some(p) = problem {
            failed += 1;
            failures.push(format!(
                "{}/{}: {p}",
                d.plan.target.manifest, d.plan.target.label
            ));
        } else if d.plan.miss {
            simulated += w.map_or(0, |w| w.1);
        }
    }
    let hit_ms: Vec<f64> = done
        .iter()
        .filter(|d| !d.plan.miss)
        .map(|d| d.total_ms)
        .collect();
    let miss_ms: Vec<f64> = done
        .iter()
        .filter(|d| d.plan.miss)
        .map(|d| d.total_ms)
        .collect();
    let mut m = Metrics::default();
    m.put("wall_s", util::median(&walls), "s");
    m.put("sim_mips", simulated as f64 / timed / 1e6, "Minst/s");
    m.put("op_p50_ms", util::quantile(&hit_ms, 0.5), "ms");
    m.put("ops_per_s", done.len() as f64 / timed, "1/s");
    m.put("serve_hit_p50_ms", util::quantile(&hit_ms, 0.5), "ms");
    m.put("serve_hit_p99_ms", util::quantile(&hit_ms, 0.99), "ms");
    m.put("serve_miss_p50_ms", util::quantile(&miss_ms, 0.5), "ms");
    m.put("serve_rps", done.len() as f64 / timed, "1/s");
    let firsts: Vec<f64> = done.iter().map(|d| d.first_ms).collect();
    let gaps: Vec<f64> = done.iter().map(|d| d.total_ms - d.first_ms).collect();
    m.put("serve.first_event_ms", util::median(&firsts), "ms");
    m.put("serve.reply_gap_ms", util::median(&gaps), "ms");
    eprintln!(
        "serve seed {seed}: {} sessions, {} requests ({} hits, {} misses of a {}-cell pool) in {timed:.2} s; session walls {walls:?}; hit p50 {:.3} ms, miss p50 {:.3} ms, first event {:.3} ms, reply gap {:.3} ms",
        walls.len(),
        done.len(),
        hit_ms.len(),
        miss_ms.len(),
        pool.iter().map(Vec::len).sum::<usize>(),
        util::quantile(&hit_ms, 0.5),
        util::quantile(&miss_ms, 0.5),
        util::median(&firsts),
        util::median(&gaps),
    );
    Ok(Session {
        setup_secs,
        peak_rss_mb,
        metrics: m,
        attempted: done.len() as u64,
        failed,
        failures,
    })
}

//! The daemon: TCP accept loop, per-connection protocol handling, and
//! the single-flight cell executor over the result store.
//!
//! Threading model: one OS thread per connection (clients are few and
//! long-lived), with each manifest request fanning its cells out over
//! the experiment worker pool (`VISIM_JOBS` workers, scoped threads —
//! concurrent manifests each get their own pool scope and share the
//! process-wide pool metrics). Cell deduplication happens *across*
//! connections through the single-flight table, so two clients
//! submitting overlapping manifests never simulate a cell twice.
//!
//! Telemetry: every cell request is timed through its lifecycle phases
//! (read/parse → store lookup → coalesce wait → queue wait → simulate
//! → respond) into the process-wide [`crate::telemetry::live`]
//! registry; a tick thread samples the whole state into the flight
//! recorder every `VISIM_TICK_MS`; `watch` clients stream those
//! snapshots; and at shutdown the recorder persists as
//! `results/json/serve_timeline.json` (plus, with `--trace-out`, a
//! Chrome-trace request timeline). None of this touches the figure
//! binaries: the live sink is installed here, by the daemon only.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use visim::bench::WorkloadSize;
use visim::manifest::{CellSpec, Manifest};
use visim::{experiment, journal, store};
use visim_obs::live::names;
use visim_obs::log;
use visim_obs::schema::ResultsDoc;
use visim_obs::trace::InstSpan;
use visim_obs::{Histogram, Json};

use crate::proto::{size_from_name, ManifestSource, Request};
use crate::telemetry;
use crate::SERVE_SCHEMA;

/// Requests received, counted per cell (a manifest of 24 cells is 24
/// requests). Exported as `serve.requests`.
static REQUESTS: AtomicU64 = AtomicU64::new(0);
/// Cells served straight from the result store (`serve.hits`).
static HITS: AtomicU64 = AtomicU64::new(0);
/// Cells that had to be simulated (`serve.misses`).
static MISSES: AtomicU64 = AtomicU64::new(0);
/// Cells that joined another request's in-flight simulation
/// (`serve.coalesced`).
static COALESCED: AtomicU64 = AtomicU64::new(0);
/// Cells whose simulation failed, for the journal's end marker.
static FAILURES: AtomicU64 = AtomicU64::new(0);

/// Graceful-shutdown latch, set by the `shutdown` op.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// One in-flight cell simulation: the leader fills `slot` and notifies;
/// followers wait on `cv`.
struct Flight {
    slot: Mutex<Option<CellResult>>,
    cv: Condvar,
}

/// The single-flight table, keyed on [`CellSpec::identity`]. BTreeMap
/// because its `new` is `const` — the table predates any thread.
static FLIGHTS: Mutex<BTreeMap<String, Arc<Flight>>> = Mutex::new(BTreeMap::new());

/// The outcome of one cell, shared verbatim between the leader and any
/// coalesced followers.
#[derive(Debug, Clone)]
struct CellResult {
    /// `false` means the simulation failed.
    ok: bool,
    /// The error text when `!ok`.
    error: Option<String>,
    /// Whether the result came from the store (leader's perspective;
    /// followers report `coalesced` instead).
    from_store: bool,
    /// Small headline payload members for the `cell` event.
    payload: Vec<(String, Json)>,
}

/// Execute `compute` under single-flight: the first requester of `key`
/// runs it, everyone else arriving before completion waits and shares
/// the result. Returns the result plus whether *this* caller coalesced.
fn single_flight(key: String, compute: impl FnOnce() -> CellResult) -> (CellResult, bool) {
    let flight = {
        let mut map = FLIGHTS.lock().expect("flight table lock");
        if let Some(f) = map.get(&key) {
            Arc::clone(f)
        } else {
            let f = Arc::new(Flight {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            });
            map.insert(key.clone(), Arc::clone(&f));
            drop(map);
            // Leader: simulate outside the table lock, publish, then
            // retire the flight so later requests go to the store.
            let result = compute();
            *f.slot.lock().expect("flight slot lock") = Some(result.clone());
            f.cv.notify_all();
            FLIGHTS.lock().expect("flight table lock").remove(&key);
            return (result, false);
        }
    };
    let waited = Instant::now();
    let mut slot = flight.slot.lock().expect("flight slot lock");
    while slot.is_none() {
        slot = flight.cv.wait(slot).expect("flight slot wait");
    }
    telemetry::live().observe_latency_ns(
        names::PHASE_COALESCE_WAIT,
        waited.elapsed().as_nanos() as u64,
    );
    (slot.clone().expect("flight slot filled"), true)
}

/// Cells currently in flight (single-flight leaders that have not yet
/// published their result).
fn in_flight_count() -> u64 {
    FLIGHTS.lock().expect("flight table lock").len() as u64
}

/// Run one cell through the store-aware experiment runners. The store
/// lookup, checksum validation, stale purge, fault injection, retry,
/// and journal recording all live in `visim::experiment`; this function
/// only adapts the three cell kinds onto one result shape.
fn run_spec(spec: &CellSpec, size: &WorkloadSize) -> CellResult {
    let ok = |from_store: bool, payload: Vec<(String, Json)>| CellResult {
        ok: true,
        error: None,
        from_store,
        payload,
    };
    let failed = |e: &dyn std::fmt::Display| CellResult {
        ok: false,
        error: Some(e.to_string()),
        from_store: false,
        payload: Vec::new(),
    };
    match spec {
        CellSpec::Timed {
            bench,
            cpu,
            mem,
            variant,
            ..
        } => {
            match experiment::try_run_timed_cfg(*bench, cpu.clone(), mem.clone(), size, *variant) {
                Ok(summary) => ok(
                    summary.metrics.counter("cell.store_hit") == 1,
                    vec![("cycles".to_string(), Json::from(summary.cycles()))],
                ),
                Err(e) => failed(&e),
            }
        }
        CellSpec::Counted { bench, variant, .. } => {
            match experiment::try_run_counted_with_origin(*bench, size, *variant) {
                Ok((stats, from_store)) => ok(
                    from_store,
                    vec![("retired".to_string(), Json::from(stats.retired))],
                ),
                Err(e) => failed(&e),
            }
        }
        CellSpec::Kernel { kernel, .. } => match visim::kernels14::try_kernel_cell(*kernel, size) {
            Ok(cell) => ok(
                cell.from_store,
                vec![
                    (
                        "scalar_cycles".to_string(),
                        Json::from(cell.timed_base.cycles()),
                    ),
                    (
                        "vis_cycles".to_string(),
                        Json::from(cell.timed_vis.cycles()),
                    ),
                ],
            ),
            Err(e) => failed(&e),
        },
    }
}

/// Write one event line to the (shared) client stream. Write errors are
/// ignored: a client that hung up mid-manifest must not abort the
/// simulations — their results still land in the store for the next
/// requester.
fn send(stream: &Mutex<TcpStream>, event: &Json) {
    let mut line = event.to_compact();
    line.push('\n');
    let mut guard = stream.lock().expect("client stream lock");
    let _ = guard.write_all(line.as_bytes());
    let _ = guard.flush();
}

/// Per-request tally, reported in the terminal `done` event (the
/// `serve.*` counters aggregate the same quantities daemon-wide).
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    failed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    done: AtomicU64,
}

/// Run `specs` over the worker pool, streaming a `cell` event per
/// completion, and return the tally for the `done` event.
///
/// This is where the request lifecycle is stitched together: each cell
/// gets a daemon-wide request id, its queue wait, serving path (hit /
/// miss / coalesced), respond time, and end-to-end latency land in the
/// live registry (the store-lookup and simulate phases are recorded
/// inside `visim::experiment`), slow requests are logged, and — when
/// `--trace-out` armed the collector — the whole lifecycle becomes one
/// trace span.
fn run_cells(specs: Vec<CellSpec>, size: &WorkloadSize, stream: &Mutex<TcpStream>) -> Tally {
    let total = specs.len();
    let tally = Tally::default();
    let live = telemetry::live();
    let tracing = telemetry::trace_enabled();
    let slow_ns = telemetry::slow_threshold_ns();
    let epoch = telemetry::started();
    let work: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            let tally = &tally;
            let enqueued = Instant::now();
            move || {
                let id = REQUESTS.fetch_add(1, Ordering::Relaxed) + 1;
                let begun = Instant::now();
                live.observe_latency_ns(
                    names::PHASE_QUEUE_WAIT,
                    begun.duration_since(enqueued).as_nanos() as u64,
                );
                let identity = spec.identity(size);
                let (result, coalesced) = single_flight(identity, || run_spec(&spec, size));
                let served = Instant::now();
                let (path, path_op) = if coalesced {
                    COALESCED.fetch_add(1, Ordering::Relaxed);
                    tally.coalesced.fetch_add(1, Ordering::Relaxed);
                    (names::PATH_COALESCED, "coalesced")
                } else if result.from_store {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    tally.hits.fetch_add(1, Ordering::Relaxed);
                    (names::PATH_HIT, "hit")
                } else {
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    tally.misses.fetch_add(1, Ordering::Relaxed);
                    (names::PATH_MISS, "miss")
                };
                if result.ok {
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    FAILURES.fetch_add(1, Ordering::Relaxed);
                    tally.failed.fetch_add(1, Ordering::Relaxed);
                }
                let done = tally.done.fetch_add(1, Ordering::Relaxed) + 1;
                let mut members = vec![
                    ("event", Json::from("cell")),
                    ("label", Json::from(spec.label())),
                    (
                        "status",
                        Json::from(if result.ok { "ok" } else { "failed" }),
                    ),
                    ("from_store", Json::Bool(result.from_store)),
                    ("coalesced", Json::Bool(coalesced)),
                    ("done", Json::from(done)),
                    ("total", Json::from(total)),
                ];
                for (k, v) in &result.payload {
                    members.push((k.as_str(), v.clone()));
                }
                if let Some(e) = &result.error {
                    members.push(("error", Json::from(e.as_str())));
                }
                send(stream, &Json::obj(members));
                let finished = Instant::now();
                live.observe_latency_ns(
                    names::PHASE_RESPOND,
                    finished.duration_since(served).as_nanos() as u64,
                );
                let total_ns = finished.duration_since(enqueued).as_nanos() as u64;
                live.observe_latency_ns(path, total_ns);
                if slow_ns.is_some_and(|t| total_ns >= t) {
                    log::warn(
                        "serve",
                        &format!(
                            "slow request #{id} {} ({path_op}): {:.1} ms end to end",
                            spec.label(),
                            total_ns as f64 / 1e6
                        ),
                    );
                }
                if tracing {
                    let us = |t: Instant| t.duration_since(epoch).as_micros() as u64;
                    telemetry::record_span(InstSpan {
                        seq: id,
                        pc: id,
                        op: if result.ok { path_op } else { "failed" },
                        fetch: us(enqueued),
                        dispatch: us(begun),
                        issue: us(begun),
                        complete: us(served),
                        retire: us(finished),
                    });
                }
            }
        })
        .collect();
    experiment::run_parallel(work);
    tally
}

/// Resolve a request's manifest source against the embedded set or the
/// daemon's filesystem.
fn resolve_manifest(source: &ManifestSource) -> Result<Manifest, String> {
    match source {
        ManifestSource::Builtin(name) => Manifest::builtin(name).ok_or_else(|| {
            format!(
                "unknown builtin manifest {name:?}; have: {}",
                Manifest::builtin_names().join(", ")
            )
        }),
        ManifestSource::Path(path) => Manifest::load_file(path),
    }
}

/// Handle a `manifest` or `cell` request end to end: resolve, run,
/// stream, and send the terminal `done` event.
fn handle_run(
    source: &ManifestSource,
    only_label: Option<&str>,
    size_name: &str,
    stream: &Mutex<TcpStream>,
) -> Result<(), String> {
    let manifest = resolve_manifest(source)?;
    let size = size_from_name(size_name)?;
    let mut specs = manifest.cells();
    if let Some(label) = only_label {
        specs.retain(|s| s.label() == label);
        if specs.is_empty() {
            return Err(format!(
                "manifest {} has no cell labeled {label:?}",
                manifest.name
            ));
        }
    }
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("start")),
            ("manifest", Json::from(manifest.name.as_str())),
            ("size", Json::from(size_name)),
            ("cells", Json::from(specs.len())),
        ]),
    );
    let tally = run_cells(specs, &size, stream);
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("done")),
            ("manifest", Json::from(manifest.name.as_str())),
            ("cells", Json::from(tally.done.load(Ordering::Relaxed))),
            ("ok", Json::from(tally.ok.load(Ordering::Relaxed))),
            ("failed", Json::from(tally.failed.load(Ordering::Relaxed))),
            ("hits", Json::from(tally.hits.load(Ordering::Relaxed))),
            ("misses", Json::from(tally.misses.load(Ordering::Relaxed))),
            (
                "coalesced",
                Json::from(tally.coalesced.load(Ordering::Relaxed)),
            ),
        ]),
    );
    Ok(())
}

/// Integer hit ratio in percent (hits × 100 / requests), 0 before the
/// first request. Kept integral so shell gates can grep it exactly.
fn hit_ratio_pct(hits: u64, requests: u64) -> u64 {
    (hits * 100).checked_div(requests).unwrap_or(0)
}

/// Latency percentiles of one live histogram, for the `stats` and
/// `snapshot` events.
fn percentiles_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::from(h.count())),
        ("p50_ns", Json::from(h.quantile(0.50))),
        ("p90_ns", Json::from(h.quantile(0.90))),
        ("p99_ns", Json::from(h.quantile(0.99))),
        ("max_ns", Json::from(h.max())),
    ])
}

/// One object member per *observed* metric in `group` (phases or
/// paths), keyed by short name — empty histograms are omitted rather
/// than reported as zeros.
fn latency_group_json(group: &[&str]) -> Json {
    let live = telemetry::live();
    let mut members = Vec::new();
    for name in group {
        if let Some(h) = live.histogram(name) {
            if h.count() > 0 {
                members.push((names::short(name).to_string(), percentiles_json(&h)));
            }
        }
    }
    Json::Obj(members)
}

/// The `stats` event body: the daemon-wide serve counters, per-phase
/// and per-path latency percentiles from the live registry, and a
/// (checksumming) store scan.
fn stats_event() -> Json {
    let requests = REQUESTS.load(Ordering::Relaxed);
    let hits = HITS.load(Ordering::Relaxed);
    let mut members = vec![
        ("event", Json::from("stats")),
        ("schema", Json::from(SERVE_SCHEMA)),
        (
            "uptime_seconds",
            Json::from(telemetry::started().elapsed().as_secs_f64()),
        ),
        (
            "serve",
            Json::obj(vec![
                ("requests", Json::from(requests)),
                ("hits", Json::from(hits)),
                ("misses", Json::from(MISSES.load(Ordering::Relaxed))),
                ("coalesced", Json::from(COALESCED.load(Ordering::Relaxed))),
                ("failures", Json::from(FAILURES.load(Ordering::Relaxed))),
                ("in_flight", Json::from(in_flight_count())),
                ("hit_ratio_pct", Json::from(hit_ratio_pct(hits, requests))),
            ]),
        ),
        ("phases", latency_group_json(&names::PHASES)),
        ("paths", latency_group_json(&names::PATHS)),
    ];
    if let Some(stats) = store::stats() {
        members.push((
            "store",
            Json::obj(vec![
                ("entries", Json::from(stats.entries)),
                ("bytes", Json::from(stats.bytes)),
                ("invalid", Json::from(stats.invalid)),
            ]),
        ));
    }
    Json::obj(members)
}

/// The health-check `pong`: schema plus enough to tell *which* daemon
/// answered and whether it is busy. Uses the cached git rev — a probe
/// must not fork a subprocess.
fn pong_event() -> Json {
    Json::obj(vec![
        ("event", Json::from("pong")),
        ("schema", Json::from(SERVE_SCHEMA)),
        (
            "uptime_seconds",
            Json::from(telemetry::started().elapsed().as_secs_f64()),
        ),
        ("git_rev", Json::from(visim_obs::schema::git_rev_cached())),
        ("in_flight", Json::from(in_flight_count())),
    ])
}

/// One flight-recorder snapshot of the daemon's current state. Runs on
/// the tick thread (and once at shutdown), so it only uses cheap
/// probes: atomic counter loads, live-histogram clones, and the
/// metadata-only store scan ([`store::quick_scan`], no checksumming).
fn snapshot_json() -> Json {
    let requests = REQUESTS.load(Ordering::Relaxed);
    let hits = HITS.load(Ordering::Relaxed);
    let mut members = vec![
        ("event", Json::from("snapshot")),
        ("t_ms", Json::from(telemetry::uptime_ms())),
        ("requests", Json::from(requests)),
        ("hits", Json::from(hits)),
        ("misses", Json::from(MISSES.load(Ordering::Relaxed))),
        ("coalesced", Json::from(COALESCED.load(Ordering::Relaxed))),
        ("failures", Json::from(FAILURES.load(Ordering::Relaxed))),
        ("hit_ratio_pct", Json::from(hit_ratio_pct(hits, requests))),
        ("in_flight", Json::from(in_flight_count())),
        ("phases", latency_group_json(&names::PHASES)),
    ];
    if let Some(h) = telemetry::live().histogram("pool.queue_depth") {
        members.push(("queue_depth_max", Json::from(h.max())));
    }
    if let Some((entries, bytes)) = store::quick_scan() {
        members.push(("store_entries", Json::from(entries)));
        members.push(("store_bytes", Json::from(bytes)));
    }
    Json::obj(members)
}

/// Like [`send`] but reports whether the client is still reachable, so
/// streaming loops can stop instead of spinning against a dead socket.
fn send_ok(stream: &Mutex<TcpStream>, event: &Json) -> bool {
    let mut line = event.to_compact();
    line.push('\n');
    let mut guard = stream.lock().expect("client stream lock");
    guard.write_all(line.as_bytes()).is_ok() && guard.flush().is_ok()
}

/// Stream flight-recorder snapshots to a `watch` subscriber: one
/// immediate snapshot (not pushed to the ring — watchers must not
/// perturb the recorded timeline), then every ring tick as it lands,
/// until `count` snapshots were delivered (`0` = until shutdown), the
/// client hangs up, or the daemon shuts down. Ends with a `done` event
/// carrying the delivered count.
fn handle_watch(count: u64, stream: &Mutex<TcpStream>) {
    let ring = telemetry::ring();
    let mut last = ring.last_seq();
    if !send_ok(stream, &snapshot_json()) {
        return;
    }
    let mut sent = 1u64;
    'stream: while (count == 0 || sent < count) && !SHUTDOWN.load(Ordering::SeqCst) {
        for (seq, snap) in ring.wait_newer(last, Duration::from_millis(250)) {
            last = seq;
            if !send_ok(stream, &snap) {
                return;
            }
            sent += 1;
            if count != 0 && sent >= count {
                break 'stream;
            }
        }
    }
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("done")),
            ("snapshots", Json::from(sent)),
        ]),
    );
}

/// Serve one client connection until it closes or asks for shutdown.
fn handle_conn(stream: TcpStream, daemon_addr: std::net::SocketAddr) {
    // A reply is several small writes (cell events, then `done`). With
    // Nagle's algorithm on, each write after the first waits for the
    // client's delayed ACK of the previous one — ~40 ms per request on
    // a persistent connection.
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let stream = Mutex::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let accepted = Instant::now();
        let parsed = Request::parse(&line);
        telemetry::live().observe_latency_ns(
            names::PHASE_READ_PARSE,
            accepted.elapsed().as_nanos() as u64,
        );
        let outcome = match parsed {
            Ok(Request::Ping) => {
                send(&stream, &pong_event());
                Ok(())
            }
            Ok(Request::Stats) => {
                send(&stream, &stats_event());
                Ok(())
            }
            Ok(Request::Watch { count }) => {
                handle_watch(count, &stream);
                Ok(())
            }
            Ok(Request::Shutdown) => {
                log::info("serve", "shutdown requested");
                send(&stream, &Json::obj(vec![("event", Json::from("bye"))]));
                SHUTDOWN.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the latch.
                let _ = TcpStream::connect(daemon_addr);
                return;
            }
            Ok(Request::Manifest { source, size }) => handle_run(&source, None, &size, &stream),
            Ok(Request::Cell {
                source,
                label,
                size,
            }) => handle_run(&source, Some(&label), &size, &stream),
            Err(e) => Err(e),
        };
        if let Err(e) = outcome {
            send(
                &stream,
                &Json::obj(vec![
                    ("event", Json::from("error")),
                    ("error", Json::from(e.as_str())),
                ]),
            );
        }
    }
}

/// Daemon configuration from the CLI.
pub struct DaemonConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// When set, the `listening` event line is also written here
    /// (atomically), so scripts can poll one file instead of parsing
    /// the daemon's stdout.
    pub addr_file: Option<String>,
    /// When set, every request's lifecycle span is collected and
    /// exported to this path at shutdown as a Chrome trace-event /
    /// Perfetto file (one lane per concurrently in-flight request).
    pub trace_out: Option<String>,
}

/// Run the daemon until a client sends `shutdown`. On exit, writes the
/// run's results document (`results/json/serve.json`: pool, store,
/// fault, retry, and `serve.*` metrics plus the store's size), the
/// flight-recorder timeline (`results/json/serve_timeline.json`), the
/// request trace when `--trace-out` asked for one, and closes the
/// journal.
pub fn run(cfg: &DaemonConfig) -> Result<(), String> {
    let started = Instant::now();
    // Latch the telemetry epoch and wire the experiment layer's phase
    // timings (store lookup, simulate) into the daemon's live registry.
    telemetry::started();
    experiment::install_live_metrics(Some(Arc::clone(telemetry::live())));
    if cfg.trace_out.is_some() {
        telemetry::enable_trace();
    }
    // The daemon is store-first by definition: every lookup path goes
    // through the store before any simulation is scheduled.
    store::set_cli_resume();
    let journal_prior = journal::begin("serve", "daemon").unwrap_or(0);
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", cfg.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let listening = Json::obj(vec![
        ("event", Json::from("listening")),
        ("schema", Json::from(SERVE_SCHEMA)),
        ("addr", Json::from(addr.to_string())),
        ("pid", Json::from(u64::from(std::process::id()))),
        ("journal_prior", Json::from(journal_prior)),
    ]);
    println!("{}", listening.to_compact());
    let _ = std::io::stdout().flush();
    if let Some(path) = &cfg.addr_file {
        let mut line = listening.to_compact();
        line.push('\n');
        visim_util::atomic::write_atomic(path, line.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    log::info(
        "serve",
        &format!(
            "listening on {addr} (pid {}, {} journal entries recovered)",
            std::process::id(),
            journal_prior
        ),
    );
    // The flight recorder's tick thread: sample the daemon state into
    // the snapshot ring every VISIM_TICK_MS until shutdown. Detached —
    // it holds no locks across its sleep and the process outlives it
    // only briefly after the latch flips.
    let tick = telemetry::tick_interval();
    std::thread::spawn(move || {
        while !SHUTDOWN.load(Ordering::SeqCst) {
            std::thread::sleep(tick);
            if SHUTDOWN.load(Ordering::SeqCst) {
                break;
            }
            telemetry::ring().push(snapshot_json());
        }
    });
    let mut conns = Vec::new();
    for conn in listener.incoming() {
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        conns.push(std::thread::spawn(move || handle_conn(stream, addr)));
    }
    // Drain in-flight connections so the doc sees their final counters.
    for handle in conns {
        let _ = handle.join();
    }
    // Final flight-recorder sample, so even a daemon shut down inside
    // its first tick retains at least one snapshot.
    telemetry::ring().push(snapshot_json());
    let mut doc = ResultsDoc::new("serve", "daemon", experiment::jobs());
    doc.metrics.merge(&experiment::drain_pool_metrics());
    doc.metrics
        .set("serve.requests", REQUESTS.load(Ordering::Relaxed));
    doc.metrics.set("serve.hits", HITS.load(Ordering::Relaxed));
    doc.metrics
        .set("serve.misses", MISSES.load(Ordering::Relaxed));
    doc.metrics
        .set("serve.coalesced", COALESCED.load(Ordering::Relaxed));
    doc.metrics
        .set("serve.failures", FAILURES.load(Ordering::Relaxed));
    // The request-lifecycle latency histograms ride along in the run
    // document (`serve.phase.*`, `serve.lat.*`); the pool histograms
    // already arrived through drain_pool_metrics, so only serve-side
    // metrics are taken from the live registry.
    let live_snapshot = telemetry::live().snapshot();
    for (name, h) in live_snapshot.histograms() {
        if name.starts_with("serve.") {
            doc.metrics.merge_histogram(name, h);
        }
    }
    let mut text = doc.to_json(started.elapsed().as_secs_f64()).to_pretty();
    text.push('\n');
    visim_util::atomic::write_atomic("results/json/serve.json", text.as_bytes())
        .map_err(|e| format!("write results/json/serve.json: {e}"))?;
    let (snapshots, sampled) = telemetry::ring().drain_all();
    let retained = snapshots.len();
    let mut text = telemetry::timeline_doc(snapshots, sampled, tick).to_pretty();
    text.push('\n');
    visim_util::atomic::write_atomic("results/json/serve_timeline.json", text.as_bytes())
        .map_err(|e| format!("write results/json/serve_timeline.json: {e}"))?;
    if let Some(path) = &cfg.trace_out {
        if let Some(trace) = telemetry::trace_doc() {
            let mut text = trace.to_pretty();
            text.push('\n');
            visim_util::atomic::write_atomic(path, text.as_bytes())
                .map_err(|e| format!("write {path}: {e}"))?;
            log::info("serve", &format!("request trace written to {path}"));
        }
    }
    journal::finish(FAILURES.load(Ordering::Relaxed));
    log::info(
        "serve",
        &format!(
            "shutdown after {:.1}s: {} requests ({} hits, {} misses, {} coalesced, {} failed), \
             {retained} timeline snapshot(s) retained",
            started.elapsed().as_secs_f64(),
            REQUESTS.load(Ordering::Relaxed),
            HITS.load(Ordering::Relaxed),
            MISSES.load(Ordering::Relaxed),
            COALESCED.load(Ordering::Relaxed),
            FAILURES.load(Ordering::Relaxed),
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flight_leader_runs_once_and_followers_share() {
        let key = "test|cell".to_string();
        let result = CellResult {
            ok: true,
            error: None,
            from_store: false,
            payload: vec![("cycles".to_string(), Json::from(7u64))],
        };
        // Sequential callers never coalesce: the flight retires as the
        // leader returns.
        let (r1, c1) = single_flight(key.clone(), || result.clone());
        assert!(r1.ok && !c1);
        let (_r2, c2) = single_flight(key, || result.clone());
        assert!(!c2, "no in-flight leader to join");
        assert!(FLIGHTS.lock().unwrap().is_empty(), "flights retire");
    }

    #[test]
    fn concurrent_followers_coalesce_onto_one_computation() {
        use std::sync::atomic::AtomicUsize;
        let computed = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let coalesced_total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    let (r, coalesced) = single_flight("race|cell".to_string(), || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the
                        // other threads to arrive and become followers.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        CellResult {
                            ok: true,
                            error: None,
                            from_store: false,
                            payload: Vec::new(),
                        }
                    });
                    assert!(r.ok);
                    if coalesced {
                        coalesced_total.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let runs = computed.load(Ordering::SeqCst);
        let joined = coalesced_total.load(Ordering::SeqCst);
        assert_eq!(runs + joined, 4, "every caller either led or joined");
        assert!(runs >= 1, "someone computed");
        assert!(
            joined >= 4 - runs,
            "followers that arrived in-flight coalesced"
        );
    }
}

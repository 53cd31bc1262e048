//! `perfbench`: the repository benchmark. One invocation runs one
//! workload for a fixed time, checks its outputs, and prints every
//! metric `BENCHMARK.json` lists as the last line of standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics of an untraced
//! run; with `--trace 1` the per-layer metrics of a traced run. See
//! `perfbench/README.md` for what each workload and metric measures.

mod grid;
mod layers;
mod serve;
mod util;

use visim::WorkloadSize;
use visim_obs::Json;

use crate::grid::Outcome;

const WORKLOADS: [&str; 3] = ["fig1-exact", "fig1-sampled", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// The metric names `BENCHMARK.json` lists for this kind of run.
fn listed_metrics(trace: bool) -> Result<Vec<String>, String> {
    let path = util::repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::elements)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("a {key} entry has no name"))
        })
        .collect()
}

fn run(a: &Args, jobs: usize) -> Result<Outcome, String> {
    let sampled = a.workload == "fig1-sampled";
    match (a.workload.as_str(), a.trace) {
        ("serve-mixed", false) => {
            let s = serve::session(a.seed, a.seconds, jobs, serve::WORKLOAD)?;
            let mut m = s.metrics;
            m.put("setup_s", util::median(&s.setup_secs), "s");
            m.put("peak_rss_mb", s.peak_rss_mb, "MB");
            Ok(Outcome {
                metrics: m,
                attempted: s.attempted,
                failed: s.failed,
                failures: s.failures,
            })
        }
        ("serve-mixed", true) => layers::analyse(
            &grid::Grid::fig1(),
            &WorkloadSize::tiny(),
            false,
            jobs,
            a.seconds,
            (a.seed, a.seconds, serve::WORKLOAD),
            "serve-mixed",
        ),
        (_, false) => grid::run_untraced(a.seed, a.seconds, jobs, sampled),
        (w, true) => layers::analyse(
            &grid::Grid::fig1(),
            &grid::workload_size(a.seed, sampled),
            sampled,
            jobs,
            a.seconds,
            (a.seed, 0.0, serve::PROBE),
            w,
        ),
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve-daemon") {
        let rest: Vec<String> = argv.skip(1).collect();
        let [store_dir, addr_file] = rest.as_slice() else {
            usage()
        };
        std::process::exit(serve::daemon_main(store_dir, addr_file));
    }
    let args = parse_args(argv);
    // A clean configuration: no inherited simulator knobs (store
    // directory, trace spill, fault injection, sampling). The grid
    // workloads simulate on one worker: on a shared host two busy
    // workers slow each other by up to half, pass to pass, while one
    // runs at a steady speed. The daemon gets at most two workers,
    // never more than the host has, for its two clients.
    for (k, _) in std::env::vars() {
        if k.starts_with("VISIM_") {
            std::env::remove_var(k);
        }
    }
    let jobs = if args.workload == "serve-mixed" {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    } else {
        1
    };
    std::env::set_var("VISIM_JOBS", jobs.to_string());
    println!(
        "perfbench workload {} seed {} seconds {} trace {} jobs {jobs}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let listed = match listed_metrics(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut out = match run(&args, jobs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.put("error_rate", error_rate, "ratio");
    println!(
        "error_rate {error_rate} ({} of {} failed)",
        out.failed, out.attempted
    );
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let mut members = Vec::new();
    for name in &listed {
        let Some(m) = out.metrics.0.iter().find(|m| &m.name == name) else {
            eprintln!("perfbench: metric {name} was not measured");
            std::process::exit(1);
        };
        members.push((
            name.as_str(),
            Json::obj(vec![
                ("value", Json::from(m.value)),
                ("unit", Json::from(m.unit)),
            ]),
        ));
    }
    let correct = out.failures.is_empty() && out.failed == 0;
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::obj(members)),
    ]);
    println!("{}", line.to_compact());
}

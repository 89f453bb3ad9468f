//! DOCS benchmark: three workloads through the real `docs-service` pull
//! API, end-to-end metrics from an untraced run, per-layer metrics from a
//! traced run (`--trace 1`). See README.md.
//!
//! ```text
//! perfbench --workload <paper_campaign|large_pool|durable_tenants>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero if a
//! correctness check fails.

mod adapter;
mod checks;
mod crowd;
mod drive;
mod ledger;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use workloads::{Opts, Report};

struct Args {
    workload: String,
    opts: Opts,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            trace,
            data: PathBuf::from(".bench_data").join(format!("run-{}", std::process::id())),
        },
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print(workload: &str, args: &Opts, report: &Report) -> bool {
    println!(
        "== {workload} (seed {}, {} s, trace {})",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut manifest: Vec<String> = vec![
        format!("\"workload\":{}", json_str(workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!(
            "\"cores\":{}",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        format!("\"valid\":{}", report.valid),
    ];
    manifest.extend(
        report
            .manifest
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))),
    );
    println!("manifest {{{}}}", manifest.join(","));
    if !report.valid {
        eprintln!(
            "warning: the generator fell behind its schedule (send lag p99 > {} ms); this run is invalid and not comparable",
            workloads::SEND_LAG_LIMIT_MS
        );
    }
    for (name, v, n) in &report.e2e {
        let better = metrics::find(name).map_or("", |m| m.better.word());
        println!(
            "  {name:<28} {v:>14.4} {:<10} (n={n}; gated, {better} is better)",
            metrics::unit_of(name)
        );
    }
    for (name, v, unit, n) in &report.extra {
        println!("  {name:<28} {v:>14.4} {unit:<10} (n={n})");
    }
    for (name, v) in &report.layers {
        println!("  {name:<34} {v:>14.4} {}", metrics::unit_of(name));
    }
    let mut correct = true;
    for (name, r) in &report.checks {
        match r {
            Ok(()) => println!("  check ok    {name}"),
            Err(e) => {
                correct = false;
                println!("  check FAIL  {name}: {e}");
            }
        }
    }
    let list: Vec<String> = if args.trace {
        report
            .layers
            .iter()
            .map(|(n, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    num(*v),
                    json_str(metrics::unit_of(n))
                )
            })
            .collect()
    } else {
        report
            .e2e
            .iter()
            .map(|(n, v, _)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    num(*v),
                    json_str(metrics::unit_of(n))
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        report.attempted.max(1),
        report.failed,
        list.join(",")
    );
    correct
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let data = args.opts.data.clone();
    let _ = std::fs::create_dir_all(&data);
    let result = workloads::run(&args.workload, &args.opts);
    let code = match result {
        Ok(report) => {
            if let Some(spans) = &report.spans {
                let path = PathBuf::from(".bench_data")
                    .join(format!("spans-{}-{}.jsonl", args.workload, args.opts.seed));
                if let Err(e) = spans.write_jsonl(&path) {
                    eprintln!("perfbench: writing spans: {e}");
                }
            }
            if print(&args.workload, &args.opts, &report) {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            1
        }
    };
    let _ = std::fs::remove_dir_all(&data);
    std::process::exit(code);
}

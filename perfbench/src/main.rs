//! `np-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (reporting the median set-up
//! time), then runs a closed loop of ops with one client for whole
//! rotations until `--seconds` have passed and at least 100 ops ran.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a separate traced run. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use np_perfbench::cases::{Fixture, Output, Workload};
use np_perfbench::spans::{elapsed_ns, Spans};
use np_perfbench::stats::{count_above, median, proc_status_mb, quantile};
use np_perfbench::{layers, HARD_CAP_S};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops a timed run holds at least, so ten samples lie beyond the p90.
const MIN_OPS: usize = 100;
/// The Runner's pool width (never more than the host's threads).
const POOL_WIDTH: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload '{value}' (one of: {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("np-perfbench: {e}");
        std::process::exit(2);
    }
}

fn json_number(name: &str, value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("{name} is not a finite number: {value}"))
    }
}

/// Prints the metric lines and the closing JSON object.
fn report(
    metrics: &[(&str, f64, &str)],
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Result<(), String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        println!("{name:<22} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(name, *value)?
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = args.workload;
    let meta = np_serve::BenchMeta::collect("np-perfbench", POOL_WIDTH, args.seed);
    let pool_width = POOL_WIDTH.min(meta.host_threads.max(1) as usize);
    println!(
        "np-perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={} pool_width={pool_width} commit={}",
        meta.host_threads, meta.commit
    );

    // Bring-up is measured first, while the process is still small.
    let bring_up = if args.trace {
        let (new_ms, rss_mb, lines) = layers::bring_up(workload, pool_width, args.seed)?;
        lines.iter().for_each(|l| println!("{l}"));
        Some((new_ms, rss_mb))
    } else {
        None
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fixture: Option<Fixture> = None;
    let mut first_references: Vec<Output> = Vec::new();
    for _ in 0..SETUPS {
        drop(fixture.take());
        let t0 = Instant::now();
        let fx = Fixture::setup(workload, pool_width, args.seed)?;
        setup_s.push(elapsed_ns(t0) as f64 / 1e9);
        if first_references.is_empty() {
            first_references = fx.references.clone();
        } else if !fx
            .references
            .iter()
            .zip(&first_references)
            .all(|(a, b)| a.matches(b))
        {
            return Err("two set-ups computed different reference outputs".into());
        }
        fixture = Some(fx);
    }
    let fixture = fixture.ok_or("no set-up ran")?;
    for case in &fixture.cases {
        println!("case {}", case.id);
    }
    let reps = workload.reps();
    let threads = fixture.cases[0].threads;
    let presets: Vec<&str> = fixture.presets.iter().map(|(label, _)| *label).collect();
    println!(
        "identity {}/{}/t{threads}/pool{pool_width}/r{reps}/seed{}",
        workload.name(),
        presets.join("+"),
        args.seed
    );

    let seconds = args.seconds as f64;
    if let Some(bring_up) = bring_up {
        let layer = layers::traced_run(&fixture, seconds, bring_up)?;
        for failure in &layer.failures {
            println!("FAIL {failure}");
        }
        println!("traced ops {}", layer.attempted);
        return report(
            &layer.metrics,
            layer.attempted,
            layer.failed,
            layer.failed == 0,
        );
    }

    let n = fixture.cases.len();
    let mut op_ms: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    loop {
        for i in 0..n {
            let t0 = Instant::now();
            let out = fixture.op(i, &mut Spans::off());
            op_ms.push(elapsed_ns(t0) as f64 / 1e6);
            if !fixture.check(i, &out) {
                failed += 1;
                println!(
                    "FAIL {}: output differs from the reference",
                    fixture.cases[i].id
                );
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && op_ms.len() >= MIN_OPS) || elapsed >= HARD_CAP_S {
            break;
        }
    }
    let attempted = op_ms.len() as u64;
    for (i, case) in fixture.cases.iter().enumerate() {
        let own: Vec<f64> = op_ms.iter().skip(i).step_by(n).copied().collect();
        println!("case_ms_p50 {:>10.3} {}", median(&own), case.id);
    }
    // Throughput of each whole rotation; its median over the run resists
    // the stretches in which the host runs faster or slower.
    let rotation_ops_per_s: Vec<f64> = op_ms
        .chunks(n)
        .map(|rotation| n as f64 / (rotation.iter().sum::<f64>() / 1e3))
        .collect();
    let p90 = quantile(&op_ms, 0.9);
    println!(
        "ops {attempted} ({} rotations of {n}), {} beyond the p90",
        op_ms.len() / n,
        count_above(&op_ms, p90)
    );
    println!(
        "op_fail_ratio {} ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );
    let metrics = [
        ("op_ms_p50", median(&op_ms), "ms"),
        ("op_ms_p90", p90, "ms"),
        ("ops_per_s", median(&rotation_ops_per_s), "1/s"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", proc_status_mb("VmHWM")?, "MB"),
        (
            "op_ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ];
    report(&metrics, attempted, failed, failed == 0)
}

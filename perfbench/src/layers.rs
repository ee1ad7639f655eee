//! The traced run: per-layer metrics from public calls timed by the
//! benchmark's own code, with telemetry on for the counts.
//!
//! Each op runs twice on the same case: once with telemetry off and
//! once traced, so `trace.overhead` compares like with like. A layer the
//! workload's op calls is measured on every op; a layer it does not call
//! is probed once per run on the rotation's first case, so every metric
//! has a value on every workload.

use crate::cases::{build_program, cases, presets, Fixture, Output, Workload, EVSEL_REPS};
use crate::spans::{elapsed_ns, sim_runs, Spans};
use crate::stats::{median, proc_status_mb};
use crate::HARD_CAP_S;
use np_core::memhist::Memhist;
use np_core::runner::Runner;
use np_counters::acquisition::measure_batched;
use np_simulator::{HwEvent, MachineSim, RunResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("sim.run_ms", "ms"),
    ("sim.minst_per_s", "Minst/s"),
    ("sim.new_ms", "ms"),
    ("sim.rss_mb", "MB"),
    ("sim.runs_per_op", "count"),
    ("sim.minst_per_op", "Minst"),
    ("acq.rep_ms", "ms"),
    ("acq.runs_per_rep", "count"),
    ("acq.useful_ratio", "ratio"),
    ("runner.measure_ms", "ms"),
    ("runner.parallel_eff", "ratio"),
    ("par.idle_ms", "ms"),
    ("memhist.measure_ms", "ms"),
    ("memhist.ladder_ms", "ms"),
    ("memhist.ladder_runs", "count"),
    ("memhist.useful_ratio", "ratio"),
    ("analysis.priors_ms", "ms"),
    ("analysis.share", "ratio"),
    ("patterns.classify_us", "us"),
    ("workloads.build_ms", "ms"),
    ("trace.overhead", "ratio"),
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn counter(name: &str) -> u64 {
    np_telemetry::global().counter(name).get()
}

fn idle_ns() -> u64 {
    np_telemetry::global().histogram("par.idle_ns").sum()
}

/// `MachineSim::new` plus the first run of the preset's first case, per
/// preset, measured before anything else allocates: the costliest
/// preset's time and resident growth, plus one line per preset.
pub fn bring_up(
    workload: Workload,
    pool_width: usize,
    seed: u64,
) -> Result<(f64, f64, Vec<String>), String> {
    let cases = cases(workload, pool_width, seed)?;
    // Each simulator stays alive, so a later preset cannot reuse its
    // freed memory and hide its own resident growth.
    let mut keep: Vec<MachineSim> = Vec::new();
    let (mut new_ms, mut rss_mb) = (0.0f64, 0.0f64);
    let mut lines = Vec::new();
    for (p, (label, config)) in presets(workload).iter().enumerate() {
        let Some(case) = cases.iter().find(|c| c.preset_index == p) else {
            continue;
        };
        let program = build_program(case, config)?;
        let rss0 = proc_status_mb("VmRSS")?;
        let t0 = Instant::now();
        let sim = MachineSim::new(config.clone());
        sim.run(&program, case.seed)
            .map_err(|e| format!("{}: {e:?}", case.id))?;
        let took = ms(elapsed_ns(t0));
        let grew = proc_status_mb("VmRSS")? - rss0;
        keep.push(sim);
        lines.push(format!(
            "bring-up {label}: MachineSim::new + first run of {} {took:.3} ms, +{grew:.1} MB resident",
            case.name
        ));
        new_ms = new_ms.max(took);
        rss_mb = rss_mb.max(grew);
    }
    Ok((new_ms, rss_mb, lines))
}

/// Samples and exact counts gathered by the traced run.
#[derive(Default)]
struct Record {
    samples: BTreeMap<&'static str, Vec<f64>>,
    exact: BTreeMap<(&'static str, usize), f64>,
    failures: Vec<String>,
}

impl Record {
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A counted-work value of case `case`: it must repeat exactly on
    /// every op of that case and equal `expected` when one is known.
    fn exact(&mut self, name: &'static str, case: usize, value: f64, expected: Option<f64>) {
        if let Some(want) = expected {
            if value != want {
                self.failures
                    .push(format!("{name} on case {case}: {value}, expected {want}"));
            }
        }
        match self.exact.insert((name, case), value) {
            Some(before) if before != value => self.failures.push(format!(
                "{name} on case {case} drifted: {before} then {value}"
            )),
            _ => {}
        }
    }

    fn check(&mut self, fixture: &Fixture, i: usize, out: &Result<Output, String>, how: &str) {
        if !fixture.check(i, out) {
            self.failures.push(format!(
                "{} ({how}): output differs from the reference{}",
                fixture.cases[i].id,
                out.as_ref()
                    .err()
                    .map_or(String::new(), |e| format!(": {e}"))
            ));
        }
    }

    /// The mean over cases of an exact count.
    fn exact_mean(&self, name: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .exact
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Simulated runs one op performs, by construction.
fn runs_per_op(fixture: &Fixture, i: usize) -> f64 {
    match fixture.workload {
        Workload::EvselStat => {
            let plan = fixture.plan(i);
            (plan.repetitions * plan.pmu.runs_needed(&plan.events)) as f64
        }
        Workload::MemhistLadder => 1.0 + Fixture::thresholds() as f64,
        Workload::PatternClassify => 1.0,
    }
}

/// One timed `MachineSim::run` of case `i` on its preset's warm simulator.
fn probe_sim(fixture: &Fixture, i: usize, rec: &mut Record) -> Result<RunResult, String> {
    let t0 = Instant::now();
    let result = fixture
        .sim(i)
        .run(&fixture.programs[i], fixture.cases[i].seed)
        .map_err(|e| format!("{}: {e:?}", fixture.cases[i].id))?;
    let took = ms(elapsed_ns(t0));
    rec.sample("sim.run_ms", took);
    let minst = result.total(HwEvent::Instructions) as f64 / 1e6;
    rec.sample("sim.minst_per_s", minst / (took / 1e3));
    Ok(result)
}

/// Serial `measure_batched`, one repetition at a time; returns the summed
/// repetition time.
fn probe_acq(fixture: &Fixture, i: usize, rec: &mut Record) -> Result<f64, String> {
    let plan = fixture.plan(i);
    let want = plan.pmu.runs_needed(&plan.events) as f64;
    let mut total = 0.0;
    for rep in 0..EVSEL_REPS {
        let runs0 = counter("acq.runs");
        let t0 = Instant::now();
        measure_batched(
            fixture.sim(i),
            &fixture.programs[i],
            &plan.events,
            1,
            plan.base_seed + rep as u64,
            &plan.pmu,
        )?;
        let took = ms(elapsed_ns(t0));
        let runs = (counter("acq.runs") - runs0) as f64;
        rec.sample("acq.rep_ms", took);
        rec.exact("acq.runs_per_rep", i, runs, Some(want));
        // One distinct (program, seed) execution per repetition.
        rec.exact("acq.useful_ratio", i, 1.0 / runs, Some(1.0 / want));
        total += took;
    }
    Ok(total)
}

/// `Runner::measure_program` on a Runner of case `i`'s preset, warmed by
/// one untimed campaign; returns the timed campaign's time.
fn probe_runner(fixture: &Fixture, i: usize, rec: &mut Record) -> Result<f64, String> {
    let runner = Runner::new(fixture.config(i).clone()).with_threads(fixture.pool_width);
    let plan = fixture.plan(i);
    runner.measure_program(&fixture.programs[i], &plan)?;
    let idle0 = idle_ns();
    let t0 = Instant::now();
    runner.measure_program(&fixture.programs[i], &plan)?;
    let took = ms(elapsed_ns(t0));
    rec.sample("runner.measure_ms", took);
    rec.sample("par.idle_ms", ms(idle_ns() - idle0));
    Ok(took)
}

/// Memhist's threshold-cycling run and ladder on case `i`, timed apart.
fn memhist_spans(spans: &Spans, i: usize, rec: &mut Record) {
    let thresholds = Fixture::thresholds() as f64;
    if let (Some(cycling), Some(ladder)) =
        (spans.get("memhist.measure"), spans.get("memhist.ladder"))
    {
        rec.sample("memhist.measure_ms", ms(cycling.ns));
        rec.sample("memhist.ladder_ms", ms(ladder.ns));
        let runs = ladder.sim_runs as f64;
        rec.exact("memhist.ladder_runs", i, runs, Some(thresholds));
        // The ladder re-simulates one (program, seed) execution per run.
        rec.exact(
            "memhist.useful_ratio",
            i,
            1.0 / runs,
            Some(1.0 / thresholds),
        );
    }
}

/// `np_analysis::priors`, then `Indicators::from_run`, `derive` and
/// `classify` on `result`, the sim probe's run of case `i`.
fn probe_analysis(fixture: &Fixture, i: usize, result: &RunResult, op_ms: f64, rec: &mut Record) {
    let config = fixture.config(i);
    let t0 = Instant::now();
    let priors = np_analysis::priors(&fixture.programs[i], config);
    let took = ms(elapsed_ns(t0));
    rec.sample("analysis.priors_ms", took);
    rec.sample("analysis.share", took / op_ms);
    let t0 = Instant::now();
    let indicators = np_patterns::Indicators::from_run(result, &config.topology);
    let metrics = np_patterns::derive(&indicators);
    let verdicts = np_patterns::classify(&metrics, Some(&priors));
    rec.sample("patterns.classify_us", elapsed_ns(t0) as f64 / 1e3);
    std::hint::black_box(verdicts);
}

/// One op with telemetry off; returns its time.
fn untraced_op(fixture: &Fixture, i: usize, rec: &mut Record) -> f64 {
    let t0 = Instant::now();
    let out = fixture.op(i, &mut Spans::off());
    let took = ms(elapsed_ns(t0));
    rec.check(fixture, i, &out, "untraced");
    took
}

/// One op with telemetry on: its output, time, spans and the counted
/// work it caused.
pub struct TracedOp {
    /// The op's output.
    pub output: Result<Output, String>,
    /// Host time of the op.
    pub ms: f64,
    /// The layer calls inside the op.
    pub spans: Spans,
    /// `sim.runs` across the op.
    pub sim_runs: u64,
    /// `sim.instructions` across the op.
    pub instructions: u64,
    /// The `par.idle_ns` histogram's sum across the op.
    pub idle_ns: u64,
}

/// Runs op `i` with telemetry on (and off again afterwards). The counts
/// are process-wide, so nothing else may run simulations meanwhile.
pub fn traced_op(fixture: &Fixture, i: usize) -> TracedOp {
    np_telemetry::set_enabled(true);
    let (runs0, inst0, idle0) = (sim_runs(), counter("sim.instructions"), idle_ns());
    let mut spans = Spans::on();
    let t0 = Instant::now();
    let output = fixture.op(i, &mut spans);
    let took = ms(elapsed_ns(t0));
    let traced = TracedOp {
        output,
        ms: took,
        spans,
        sim_runs: sim_runs() - runs0,
        instructions: counter("sim.instructions") - inst0,
        idle_ns: idle_ns() - idle0,
    };
    np_telemetry::set_enabled(false);
    traced
}

/// What the traced run reports.
pub struct LayerReport {
    /// `(name, value, unit)` in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops run (each once untraced and once traced).
    pub attempted: u64,
    /// Ops with a mismatched output or a drifted or unexpected count.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

/// Runs whole rotations, each op untraced and traced, until `seconds`
/// have passed (at least two rotations, one in each order).
pub fn traced_run(
    fixture: &Fixture,
    seconds: f64,
    bring_up: (f64, f64),
) -> Result<LayerReport, String> {
    let mut rec = Record::default();
    let n = fixture.cases.len();
    let start = Instant::now();
    let mut op = 0usize;
    let mut failed = 0u64;
    loop {
        let i = op % n;
        let failures_before = rec.failures.len();
        // The untraced and the traced op run back to back on the same
        // case; their order flips every rotation so neither always runs
        // on the other's warm host caches.
        let traced_first = (op / n) % 2 == 1;
        let mut plain_ms = 0.0;
        if !traced_first {
            plain_ms = untraced_op(fixture, i, &mut rec);
        }
        let traced = traced_op(fixture, i);
        rec.check(fixture, i, &traced.output, "traced");
        if traced_first {
            plain_ms = untraced_op(fixture, i, &mut rec);
        }
        np_telemetry::set_enabled(true);
        let (spans, op_ms) = (&traced.spans, traced.ms);
        rec.sample("op.untraced_ms", plain_ms);
        rec.sample("op.traced_ms", op_ms);
        let runs = traced.sim_runs as f64;
        rec.exact("sim.runs_per_op", i, runs, Some(runs_per_op(fixture, i)));
        rec.exact(
            "sim.minst_per_op",
            i,
            traced.instructions as f64 / 1e6,
            None,
        );

        let first = op == 0;
        let result = probe_sim(fixture, i, &mut rec)?;
        let t0 = Instant::now();
        build_program(&fixture.cases[i], fixture.config(i))?;
        rec.sample("workloads.build_ms", ms(elapsed_ns(t0)));
        let wl = fixture.workload;
        if wl == Workload::EvselStat || first {
            let acq_ms = probe_acq(fixture, i, &mut rec)?;
            let runner_ms = match spans.get("runner.measure") {
                Some(span) => {
                    rec.sample("runner.measure_ms", ms(span.ns));
                    rec.sample("par.idle_ms", ms(traced.idle_ns));
                    ms(span.ns)
                }
                None => probe_runner(fixture, i, &mut rec)?,
            };
            rec.sample(
                "runner.parallel_eff",
                acq_ms / (fixture.pool_width as f64 * runner_ms),
            );
        }
        if wl == Workload::MemhistLadder {
            memhist_spans(spans, i, &mut rec);
        } else if first {
            let mut probe = Spans::on();
            let tool = Memhist::with_defaults();
            let (sim, program, seed) =
                (fixture.sim(i), &fixture.programs[i], fixture.cases[i].seed);
            probe.time("memhist.measure", || tool.measure(sim, program, seed));
            probe.time("memhist.ladder", || tool.measure_ladder(sim, program, seed));
            memhist_spans(&probe, i, &mut rec);
        }
        if wl == Workload::PatternClassify || first {
            probe_analysis(fixture, i, &result, op_ms, &mut rec);
        }
        np_telemetry::set_enabled(false);
        if rec.failures.len() > failures_before {
            failed += 1;
        }

        op += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if (op % n == 0 && op >= 2 * n && elapsed >= seconds) || elapsed >= HARD_CAP_S {
            break;
        }
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = match name {
            "sim.new_ms" => Some(bring_up.0),
            "sim.rss_mb" => Some(bring_up.1),
            "trace.overhead" => {
                Some(median(&rec.samples["op.traced_ms"]) / median(&rec.samples["op.untraced_ms"]))
            }
            _ => rec
                .exact_mean(name)
                .or_else(|| rec.samples.get(name).map(|v| median(v))),
        };
        let value = value.ok_or_else(|| format!("traced run measured no {name}"))?;
        metrics.push((name, value, unit));
    }
    Ok(LayerReport {
        metrics,
        attempted: op as u64,
        failed,
        failures: rec.failures,
    })
}

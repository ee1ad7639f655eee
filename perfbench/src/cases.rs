//! The three workloads: their cases, the set-up that computes every
//! reference output, one closed-loop op and the check of its output.
//!
//! A case is one `(preset, program, simulated threads, seed)` point of a
//! workload's rotation. Op `k` runs case `k % cases.len()`, so every case
//! is repeated with the same inputs and compared with the reference the
//! set-up computed for it outside any timer.

use crate::spans::Spans;
use np_core::memhist::{Memhist, MemhistConfig, MemhistResult};
use np_core::runner::{MeasurementPlan, Runner};
use np_counters::acquisition::measure_batched;
use np_counters::measurement::Measurement;
use np_simulator::{MachineConfig, MachineSim, Program};
use std::collections::BTreeSet;

/// Evsel campaigns use the CLI `stat` defaults: every catalog event,
/// three repetitions, four simulated threads on the DL580 preset.
pub const EVSEL_REPS: usize = 3;
const EVSEL_THREADS: usize = 4;
/// The rotation: `(registry name, size)`. Sort runs at an eighth and
/// stream-local at a quarter of its registry default, so that a run
/// holds 100 ops.
const EVSEL_PROGRAMS: [(&str, Option<usize>); 5] = [
    ("sort", Some(8 * 1024)),
    ("stream-local", Some(24 * 1024)),
    ("hashjoin-small", None),
    ("chase-large", None),
    ("stencil-small", None),
];

const MEMHIST_THREADS: usize = 4;
/// Latency-bound programs; stream-bound at a third of its default size.
const MEMHIST_PROGRAMS: [(&str, Option<usize>); 3] = [
    ("mlc-remote", None),
    ("chase-large", None),
    ("stream-bound", Some(32 * 1024)),
];

const PATTERN_THREADS: usize = 2;
/// Registry entries left out of pattern-classify: each takes 1.5–11 s
/// per case and would dominate the run.
const PATTERN_SKIPPED: [&str; 4] = ["row-major", "column-major", "sift", "sift-naive"];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-catalog EvSel campaigns through `Runner::measure_program`.
    EvselStat,
    /// `Memhist::measure` then `Memhist::measure_ladder`.
    MemhistLadder,
    /// Registry build and `classify_run` against the registry label.
    PatternClassify,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::EvselStat,
        Workload::MemhistLadder,
        Workload::PatternClassify,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvselStat => "evsel-stat",
            Workload::MemhistLadder => "memhist-ladder",
            Workload::PatternClassify => "pattern-classify",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Repetitions per op (1 where the workload has no repetitions).
    pub fn reps(self) -> usize {
        match self {
            Workload::EvselStat => EVSEL_REPS,
            _ => 1,
        }
    }
}

/// The seed of case `index` under workload seed `seed`: a SplitMix64
/// mix, kept below 2^40 so `seed + repetition` never overflows.
pub fn case_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 24
}

/// One point of a workload's rotation.
#[derive(Debug, Clone)]
pub struct Case {
    /// Identity from every parameter; unique within a run.
    pub id: String,
    /// Machine preset label.
    pub preset: &'static str,
    /// Index into the fixture's presets.
    pub preset_index: usize,
    /// Registry name.
    pub name: &'static str,
    /// Registry size (`None` = registry default).
    pub size: Option<usize>,
    /// Simulated threads.
    pub threads: usize,
    /// Simulation seed of every op on this case.
    pub seed: u64,
}

/// The presets a workload runs on.
pub fn presets(workload: Workload) -> Vec<(&'static str, MachineConfig)> {
    match workload {
        Workload::PatternClassify => np_patterns::sweep_machines(),
        _ => vec![("dl580", MachineConfig::dl580_gen9())],
    }
}

/// The workload's rotation, each case with its identity. Fails on a
/// duplicate identity.
pub fn cases(workload: Workload, pool_width: usize, seed: u64) -> Result<Vec<Case>, String> {
    let mut points: Vec<(&'static str, usize, &'static str, Option<usize>, usize)> = Vec::new();
    match workload {
        Workload::EvselStat => {
            for (name, size) in EVSEL_PROGRAMS {
                points.push(("dl580", 0, name, size, EVSEL_THREADS));
            }
        }
        Workload::MemhistLadder => {
            for (name, size) in MEMHIST_PROGRAMS {
                points.push(("dl580", 0, name, size, MEMHIST_THREADS));
            }
        }
        Workload::PatternClassify => {
            for (p, (preset, _)) in np_patterns::sweep_machines().into_iter().enumerate() {
                for name in np_workloads::registry::NAMES {
                    if !PATTERN_SKIPPED.contains(&name) {
                        let size = np_patterns::verify::sweep_size(name);
                        points.push((preset, p, name, size, PATTERN_THREADS));
                    }
                }
            }
        }
    }
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(points.len());
    for (index, (preset, preset_index, name, size, threads)) in points.into_iter().enumerate() {
        let seed = case_seed(seed, index);
        let size_label = size.map_or("default".to_string(), |s| s.to_string());
        let id = format!(
            "{}/{preset}/t{threads}/pool{pool_width}/r{}/{name}@{size_label}/s{seed}",
            workload.name(),
            workload.reps()
        );
        if !seen.insert(id.clone()) {
            return Err(format!("duplicate result identity {id}"));
        }
        out.push(Case {
            id,
            preset,
            preset_index,
            name,
            size,
            threads,
            seed,
        });
    }
    Ok(out)
}

/// Builds a case's program through the registry.
pub fn build_program(case: &Case, config: &MachineConfig) -> Result<Program, String> {
    let w = np_workloads::registry::build(case.name, case.size, case.threads, config)?;
    let program = w.build(config);
    program
        .validate(&config.topology)
        .map_err(|e| format!("{}: invalid program: {e:?}", case.id))?;
    Ok(program)
}

/// What one op returns; also the shape of a reference output.
#[derive(Debug, Clone)]
pub enum Output {
    /// Evsel: the campaign's measurements, one per repetition.
    Runs(Vec<Measurement>),
    /// Memhist: the threshold-cycling and the ladder histogram.
    Histograms {
        cycling: MemhistResult,
        ladder: MemhistResult,
    },
    /// Pattern-classify: the fired pattern names.
    Fired(Vec<String>),
}

fn same_histogram(a: &MemhistResult, b: &MemhistResult) -> bool {
    a.histogram.bins == b.histogram.bins
        && a.coverage == b.coverage
        && a.total_slices == b.total_slices
        && a.degraded == b.degraded
}

impl Output {
    /// Whether `self` equals the reference `want` exactly.
    pub fn matches(&self, want: &Output) -> bool {
        match (self, want) {
            (Output::Runs(a), Output::Runs(b)) => a == b,
            (
                Output::Histograms { cycling, ladder },
                Output::Histograms {
                    cycling: want_cycling,
                    ladder: want_ladder,
                },
            ) => same_histogram(cycling, want_cycling) && same_histogram(ladder, want_ladder),
            (Output::Fired(a), Output::Fired(b)) => a == b,
            _ => false,
        }
    }
}

/// Everything a workload needs before its first timed op.
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// The rotation.
    pub cases: Vec<Case>,
    /// `(label, config)` per preset.
    pub presets: Vec<(&'static str, MachineConfig)>,
    /// One simulator per preset; empty for evsel, whose Runner owns it.
    pub sims: Vec<MachineSim>,
    /// Evsel only: the Runner whose pool fans out the campaign.
    pub runner: Option<Runner>,
    /// Each case's program.
    pub programs: Vec<Program>,
    /// Each case's reference output.
    pub references: Vec<Output>,
    /// Pool width of the Runner.
    pub pool_width: usize,
    memhist: Memhist,
}

impl Fixture {
    /// Builds simulators, programs and every reference output.
    pub fn setup(workload: Workload, pool_width: usize, seed: u64) -> Result<Fixture, String> {
        let cases = cases(workload, pool_width, seed)?;
        let presets = presets(workload);
        let runner = match workload {
            Workload::EvselStat => Some(Runner::new(presets[0].1.clone()).with_threads(pool_width)),
            _ => None,
        };
        let sims = match runner {
            Some(_) => Vec::new(),
            None => presets
                .iter()
                .map(|(_, config)| MachineSim::new(config.clone()))
                .collect(),
        };
        let mut fixture = Fixture {
            workload,
            cases,
            presets,
            sims,
            runner,
            programs: Vec::new(),
            references: Vec::new(),
            pool_width,
            memhist: Memhist::with_defaults(),
        };
        for i in 0..fixture.cases.len() {
            let program = build_program(&fixture.cases[i], fixture.config(i))?;
            fixture.programs.push(program);
            let reference = fixture.reference(i)?;
            fixture.references.push(reference);
        }
        Ok(fixture)
    }

    /// The machine configuration of case `i`.
    pub fn config(&self, i: usize) -> &MachineConfig {
        &self.presets[self.cases[i].preset_index].1
    }

    /// The simulator of case `i`'s preset (the Runner's own for evsel).
    pub fn sim(&self, i: usize) -> &MachineSim {
        match &self.runner {
            Some(runner) => runner.sim(),
            None => &self.sims[self.cases[i].preset_index],
        }
    }

    /// The evsel measurement plan of case `i`.
    pub fn plan(&self, i: usize) -> MeasurementPlan {
        MeasurementPlan::all_events(EVSEL_REPS, self.cases[i].seed)
    }

    /// The memhist threshold ladder.
    pub fn thresholds() -> usize {
        MemhistConfig::default().thresholds.len()
    }

    /// Case `i`'s reference, by an independent path: serial
    /// `measure_batched` per repetition, `measure_exact` for the ladder,
    /// the registry label for the classification.
    fn reference(&self, i: usize) -> Result<Output, String> {
        let case = &self.cases[i];
        let program = &self.programs[i];
        Ok(match self.workload {
            Workload::EvselStat => {
                let plan = self.plan(i);
                let mut runs = Vec::with_capacity(plan.repetitions);
                for rep in 0..plan.repetitions {
                    let set = measure_batched(
                        self.sim(i),
                        program,
                        &plan.events,
                        1,
                        case.seed + rep as u64,
                        &plan.pmu,
                    )?;
                    runs.extend(set.runs);
                }
                Output::Runs(runs)
            }
            Workload::MemhistLadder => Output::Histograms {
                cycling: self.memhist.measure(self.sim(i), program, case.seed),
                ladder: self.memhist.measure_exact(self.sim(i), program, case.seed),
            },
            Workload::PatternClassify => Output::Fired(
                np_workloads::registry::expected_patterns(case.name)
                    .ok_or_else(|| format!("{}: no registry label", case.id))?
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
        })
    }

    /// One closed-loop op on case `i`. `spans` times the calls into each
    /// layer when tracing; it is a plain call otherwise.
    pub fn op(&self, i: usize, spans: &mut Spans) -> Result<Output, String> {
        let case = &self.cases[i];
        let program = &self.programs[i];
        match self.workload {
            Workload::EvselStat => {
                let runner = self.runner.as_ref().ok_or("evsel fixture has no Runner")?;
                let plan = self.plan(i);
                let set =
                    spans.time("runner.measure", || runner.measure_program(program, &plan))?;
                Ok(Output::Runs(set.runs))
            }
            Workload::MemhistLadder => {
                let sim = self.sim(i);
                let cycling = spans.time("memhist.measure", || {
                    self.memhist.measure(sim, program, case.seed)
                });
                let ladder = spans.time("memhist.ladder", || {
                    self.memhist.measure_ladder(sim, program, case.seed)
                });
                Ok(Output::Histograms { cycling, ladder })
            }
            Workload::PatternClassify => {
                let config = self.config(i);
                let program =
                    np_workloads::registry::build(case.name, case.size, case.threads, config)?
                        .build(config);
                let (_, verdicts) = np_patterns::classify_run(&program, config, case.seed)?;
                Ok(Output::Fired(np_patterns::fired_names(&verdicts)))
            }
        }
    }

    /// Whether op output `out` on case `i` equals its reference.
    pub fn check(&self, i: usize, out: &Result<Output, String>) -> bool {
        out.as_ref().is_ok_and(|o| o.matches(&self.references[i]))
    }
}

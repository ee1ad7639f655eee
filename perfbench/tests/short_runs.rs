//! Short runs of every workload: outputs, labels and exact counts.
//!
//! Telemetry counters are process-wide and a traced op switches
//! telemetry on for everyone, so every test that simulates holds `LOCK`.

use np_perfbench::cases::{cases, Fixture, Output, Workload};
use np_perfbench::layers::{traced_op, traced_run, PER_LAYER};
use np_perfbench::spans::Spans;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn counts(fixture: &Fixture) -> Vec<(u64, u64)> {
    (0..fixture.cases.len())
        .map(|i| {
            let op = traced_op(fixture, i);
            assert!(fixture.check(i, &op.output), "{}", fixture.cases[i].id);
            (op.sim_runs, op.instructions)
        })
        .collect()
}

#[test]
fn one_rotation_of_every_workload_matches_its_references() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        let fixture = Fixture::setup(workload, 2, 1).unwrap();
        for i in 0..fixture.cases.len() {
            let out = fixture.op(i, &mut Spans::off());
            assert!(fixture.check(i, &out), "{}", fixture.cases[i].id);
        }
    }
}

#[test]
fn pattern_references_are_the_registry_labels() {
    let fixture = Fixture::setup(Workload::PatternClassify, 2, 1).unwrap();
    assert_eq!(fixture.cases.len(), 40);
    let i = fixture
        .cases
        .iter()
        .position(|c| c.name == "stream-local")
        .unwrap();
    match &fixture.references[i] {
        Output::Fired(labels) => assert_eq!(labels, &["bandwidth-bound"]),
        other => panic!("unexpected reference {other:?}"),
    }
    // A wrong label is a failed op, not a pass.
    assert!(!Output::Fired(vec![]).matches(&fixture.references[i]));
}

#[test]
fn a_second_seed_gives_the_same_counts_with_different_case_seeds() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        let a = Fixture::setup(workload, 2, 1).unwrap();
        let b = Fixture::setup(workload, 2, 2).unwrap();
        for (ca, cb) in a.cases.iter().zip(&b.cases) {
            assert_ne!(ca.seed, cb.seed, "{}", ca.id);
            assert_ne!(ca.id, cb.id);
        }
        let (ca, cb) = (counts(&a), counts(&b));
        let noise = &a.presets[0].1.noise;
        for ((runs_a, inst_a), (runs_b, inst_b)) in ca.iter().zip(&cb) {
            assert_eq!(runs_a, runs_b, "{}", workload.name());
            if noise.timer_interval == 0 {
                assert_eq!(inst_a, inst_b, "{}", workload.name());
            } else {
                // The noise model's timer interrupts are the only
                // seed-dependent instructions.
                assert_eq!(inst_a.abs_diff(*inst_b) % noise.interrupt_instructions, 0);
            }
        }
        let want_runs = match workload {
            Workload::EvselStat => 27,
            Workload::MemhistLadder => 16,
            Workload::PatternClassify => 1,
        };
        assert!(ca.iter().all(|&(runs, inst)| runs == want_runs && inst > 0));
    }
}

#[test]
fn traced_run_reports_every_layer_with_exact_counts() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let fixture = Fixture::setup(Workload::MemhistLadder, 2, 3).unwrap();
    let report = traced_run(&fixture, 0.0, (1.0, 1.0)).unwrap();
    assert_eq!(report.failed, 0, "{:?}", report.failures);
    assert_eq!(report.attempted, 2 * fixture.cases.len() as u64);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
    assert_eq!(value("acq.runs_per_rep"), 9.0);
    assert_eq!(value("acq.useful_ratio"), 1.0 / 9.0);
    assert_eq!(value("memhist.ladder_runs"), 15.0);
    assert_eq!(value("sim.runs_per_op"), 16.0);
    for (name, v, _) in &report.metrics {
        assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
    }
}

#[test]
fn identities_carry_every_parameter_and_are_unique() {
    let evsel = cases(Workload::EvselStat, 2, 5).unwrap();
    assert!(evsel[0]
        .id
        .starts_with("evsel-stat/dl580/t4/pool2/r3/sort@8192/s"));
    let narrow = cases(Workload::EvselStat, 1, 5).unwrap();
    assert_ne!(evsel[0].id, narrow[0].id);
    let pattern = cases(Workload::PatternClassify, 2, 5).unwrap();
    let mut ids: Vec<&str> = pattern.iter().map(|c| c.id.as_str()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), pattern.len());
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("serve"), None);
}

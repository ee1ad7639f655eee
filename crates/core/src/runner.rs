//! Run orchestration: workloads × measurement plans → run sets.
//!
//! EvSel "was designed to measure all performance counters during the
//! whole program run and does not perform event cycling thus. Since only a
//! limited number of registers is available for measuring, program runs
//! are repeated" (§IV-A-1). A [`MeasurementPlan`] captures those choices
//! (which events, how many repetitions, batched vs multiplexed); the
//! [`Runner`] executes the plan, fanning independent simulated runs across
//! host cores with the np-parallel pool — whose merge-in-submission-order
//! contract is what keeps the campaign bit-identical to a serial loop at
//! every thread count.

use crate::capture::NodeSeriesObserver;
use np_counters::acquisition::{
    measure_batched_pool, measure_batched_resilient, measure_multiplexed, AcquisitionMode,
};
use np_counters::catalog::{EventCatalog, EventId};
use np_counters::measurement::{Measurement, RunSet};
use np_counters::pmu::PmuModel;
use np_parallel::{ChunkProfile, Pool, Schedule};
use np_resilience::{BreakerConfig, CircuitBreaker, FaultInjector, RetryPolicy};
use np_simulator::{MachineConfig, MachineSim, Program};
use np_telemetry::timeseries::Sampler;
use np_workloads::Workload;

/// What to measure and how.
#[derive(Debug, Clone)]
pub struct MeasurementPlan {
    /// Events to cover.
    pub events: Vec<EventId>,
    /// Identically-configured repetitions (the sample size for t-tests;
    /// the paper's EvSel takes "a number of repetitions").
    pub repetitions: usize,
    /// Register acquisition mode.
    pub mode: AcquisitionMode,
    /// Seed of the first repetition; repetition `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// The PMU register model.
    pub pmu: PmuModel,
}

impl MeasurementPlan {
    /// Measures *every* catalog event with batched runs — EvSel's default
    /// posture ("EvSel can measure all counters").
    pub fn all_events(repetitions: usize, base_seed: u64) -> Self {
        MeasurementPlan {
            events: EventCatalog::builtin().ids(),
            repetitions: repetitions.max(2),
            mode: AcquisitionMode::BatchedRuns,
            base_seed,
            pmu: PmuModel::default(),
        }
    }

    /// Measures a specific event list.
    pub fn events(events: Vec<EventId>, repetitions: usize, base_seed: u64) -> Self {
        MeasurementPlan {
            events,
            repetitions: repetitions.max(2),
            mode: AcquisitionMode::BatchedRuns,
            base_seed,
            pmu: PmuModel::default(),
        }
    }

    /// Switches to multiplexed acquisition (for the ablation).
    pub fn multiplexed(mut self) -> Self {
        self.mode = AcquisitionMode::Multiplexed;
        self
    }

    /// Total simulated runs this plan will execute.
    pub fn total_runs(&self) -> usize {
        match self.mode {
            AcquisitionMode::BatchedRuns => self.repetitions * self.pmu.runs_needed(&self.events),
            AcquisitionMode::Multiplexed => self.repetitions,
        }
    }
}

/// Fault policy for a resilient measurement campaign.
///
/// A campaign is a sequence of repetitions; each repetition retries its
/// simulated runs per [`RetryPolicy`], and a shared [`CircuitBreaker`]
/// stops hammering an acquisition path that keeps failing. The campaign
/// degrades gracefully: it succeeds with however many repetitions
/// survived, as long as at least `min_repetitions` did.
#[derive(Debug, Clone)]
pub struct CampaignPolicy {
    /// Per-repetition retry schedule for transient acquisition failures.
    pub retry: RetryPolicy,
    /// Breaker thresholds shared by every repetition of the campaign.
    pub breaker: BreakerConfig,
    /// Minimum surviving repetitions for the campaign to count. Fewer
    /// than this (after retries and breaker skips) is a hard error.
    pub min_repetitions: usize,
}

impl Default for CampaignPolicy {
    fn default() -> Self {
        CampaignPolicy {
            retry: RetryPolicy::new(3),
            breaker: BreakerConfig::default(),
            min_repetitions: 1,
        }
    }
}

/// What a sampled campaign produced: the measurements, the merged
/// deterministic time-series capture, and the pool's worker profile.
#[derive(Debug)]
pub struct SampledCampaign {
    /// The per-repetition measurements (same values the plain batched
    /// path records for the same plan).
    pub runs: RunSet,
    /// Merged per-repetition, per-node, phase-attributed series
    /// (`rep<R>.node<N>.<event>`), timestamped in simulated cycles.
    pub sampler: Sampler,
    /// Per-chunk worker attribution from the pool (wall-clock ns).
    pub profile: Vec<ChunkProfile>,
    /// Pool worker count the campaign ran with.
    pub workers: usize,
}

/// Executes measurement plans against one simulated machine.
pub struct Runner {
    sim: MachineSim,
    pool: Pool,
}

impl Runner {
    /// Creates a runner for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        Runner {
            sim: MachineSim::new(machine),
            pool: Pool::default(),
        }
    }

    /// Wraps an existing simulator.
    pub fn from_sim(sim: MachineSim) -> Self {
        Runner {
            sim,
            pool: Pool::default(),
        }
    }

    /// Sets the worker-thread count for parallel campaign execution.
    /// Purely a throughput knob: measured values are bit-identical for
    /// every choice (see the np-parallel determinism contract).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// The pool that fans out batched runs and sampled repetitions.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &MachineSim {
        &self.sim
    }

    /// Measures a workload under `plan`. Returns an error for empty plans.
    pub fn measure(
        &self,
        workload: &dyn Workload,
        plan: &MeasurementPlan,
    ) -> Result<RunSet, String> {
        let program = workload.build(self.sim.config());
        let mut set = self.measure_program(&program, plan)?;
        set.label = workload.name();
        Ok(set)
    }

    /// Measures an already-built program under `plan`.
    pub fn measure_program(
        &self,
        program: &Program,
        plan: &MeasurementPlan,
    ) -> Result<RunSet, String> {
        if plan.events.is_empty() {
            return Err("measurement plan has no events".into());
        }
        if plan.repetitions == 0 {
            return Err("measurement plan has no repetitions".into());
        }
        let _span = np_telemetry::span!("runner.measure", "runner");
        np_telemetry::counter!("runner.campaigns").inc();
        np_telemetry::counter!("runner.repetitions").add(plan.repetitions as u64);
        match plan.mode {
            AcquisitionMode::BatchedRuns => {
                let set = measure_batched_pool(
                    &self.sim,
                    program,
                    &plan.events,
                    plan.repetitions,
                    plan.base_seed,
                    &plan.pmu,
                    &self.pool,
                )?;
                np_telemetry::counter!("runner.reps_done").add(plan.repetitions as u64);
                Ok(set)
            }
            AcquisitionMode::Multiplexed => measure_multiplexed(
                &self.sim,
                program,
                &plan.events,
                plan.repetitions,
                plan.base_seed,
                &plan.pmu,
            ),
        }
    }

    /// Measures a workload under `plan` with fault tolerance: retries,
    /// a circuit breaker, and graceful degradation to fewer repetitions.
    pub fn measure_resilient(
        &self,
        workload: &dyn Workload,
        plan: &MeasurementPlan,
        policy: &CampaignPolicy,
        faults: &dyn FaultInjector,
    ) -> Result<RunSet, String> {
        let program = workload.build(self.sim.config());
        let mut set = self.measure_program_resilient(&program, plan, policy, faults)?;
        set.label = workload.name();
        Ok(set)
    }

    /// Resilient variant of [`Runner::measure_program`].
    ///
    /// Repetitions run serially so the breaker sees failures in order;
    /// each repetition is still the same independent `(program, seed)`
    /// simulation, so on a clean link the values are bit-identical to
    /// the parallel path. Skipped and failed repetitions are visible in
    /// telemetry (`runner.skipped_repetitions`, `runner.failed_repetitions`)
    /// and the breaker exports its state under `runner.circuit.*`.
    pub fn measure_program_resilient(
        &self,
        program: &Program,
        plan: &MeasurementPlan,
        policy: &CampaignPolicy,
        faults: &dyn FaultInjector,
    ) -> Result<RunSet, String> {
        if plan.events.is_empty() {
            return Err("measurement plan has no events".into());
        }
        if plan.repetitions == 0 {
            return Err("measurement plan has no repetitions".into());
        }
        let _span = np_telemetry::span!("runner.measure_resilient", "runner");
        np_telemetry::counter!("runner.campaigns").inc();
        np_telemetry::counter!("runner.repetitions").add(plan.repetitions as u64);
        let breaker = CircuitBreaker::new("runner.circuit", policy.breaker.clone());
        let mut runs: Vec<Measurement> = Vec::with_capacity(plan.repetitions);
        let mut last_err: Option<String> = None;
        for rep in 0..plan.repetitions {
            if !breaker.allow() {
                np_telemetry::counter!("runner.skipped_repetitions").inc();
                continue;
            }
            let seed = plan.base_seed + rep as u64;
            let outcome = match plan.mode {
                AcquisitionMode::BatchedRuns => measure_batched_resilient(
                    &self.sim,
                    program,
                    &plan.events,
                    1,
                    seed,
                    &plan.pmu,
                    &policy.retry,
                    faults,
                ),
                // Multiplexing measures everything in one run; there is no
                // batch boundary to retry, so it runs unguarded.
                AcquisitionMode::Multiplexed => {
                    measure_multiplexed(&self.sim, program, &plan.events, 1, seed, &plan.pmu)
                }
            };
            match outcome {
                Ok(one) => {
                    breaker.record_success();
                    np_telemetry::counter!("runner.reps_done").inc();
                    runs.extend(one.runs);
                }
                Err(e) => {
                    breaker.record_failure();
                    np_telemetry::counter!("runner.failed_repetitions").inc();
                    last_err = Some(e);
                }
            }
        }
        if runs.len() < policy.min_repetitions {
            return Err(format!(
                "campaign degraded below minimum: {}/{} repetitions survived (need {}): {}",
                runs.len(),
                plan.repetitions,
                policy.min_repetitions,
                last_err.unwrap_or_else(|| "no repetition attempted".into()),
            ));
        }
        Ok(RunSet {
            runs,
            label: "batched".into(),
        })
    }

    /// [`Runner::measure_program_sampled`] over a workload.
    pub fn measure_sampled(
        &self,
        workload: &dyn Workload,
        plan: &MeasurementPlan,
        capacity: usize,
    ) -> Result<SampledCampaign, String> {
        let program = workload.build(self.sim.config());
        let mut campaign = self.measure_program_sampled(&program, plan, capacity)?;
        campaign.runs.label = workload.name();
        Ok(campaign)
    }

    /// Batched measurement with a per-repetition time-series capture.
    ///
    /// Every repetition runs the simulation once under a
    /// [`NodeSeriesObserver`] (timestamps in simulated cycles, phase
    /// `measure`), into its **own** sampler; the pool hands repetitions
    /// back in submission order and the samplers merge serially under
    /// `rep<R>.` prefixes. The merged capture is therefore a pure
    /// function of the plan — byte-identical across runs and across
    /// pool thread counts. The pool's [`ChunkProfile`] rides along for
    /// the worker timeline (wall-clock, intentionally separate from the
    /// deterministic capture).
    ///
    /// Event values are read straight off the observed run's counters —
    /// identical to what batched acquisition records for the same
    /// `(program, seed)`, without paying for one simulation per
    /// register batch.
    pub fn measure_program_sampled(
        &self,
        program: &Program,
        plan: &MeasurementPlan,
        capacity: usize,
    ) -> Result<SampledCampaign, String> {
        if plan.events.is_empty() {
            return Err("measurement plan has no events".into());
        }
        if plan.repetitions == 0 {
            return Err("measurement plan has no repetitions".into());
        }
        let _span = np_telemetry::span!("runner.measure_sampled", "runner");
        np_telemetry::counter!("runner.campaigns").inc();
        np_telemetry::counter!("runner.repetitions").add(plan.repetitions as u64);
        // One chunk per repetition, pinned: each item is a whole observed
        // simulation (far above the adaptive work floor), and the worker
        // timeline's contract is per-repetition attribution — the same
        // chunk geometry at every thread count, including the inline
        // single-worker path.
        let pool = Pool::with_config(np_parallel::PoolConfig {
            threads: self.pool.threads(),
            chunk_size: Some(1),
            ..np_parallel::PoolConfig::default()
        });
        let report = pool.run_report(
            plan.repetitions,
            |rep| {
                let _phase = np_telemetry::phase("measure");
                let seed = plan.base_seed + rep as u64;
                let mut obs = NodeSeriesObserver::new(self.sim.config().topology.clone(), capacity);
                let result = match self.sim.run_observed(program, seed, &mut obs) {
                    Ok(r) => r,
                    Err(e) => {
                        return (Err(format!("invalid program: {e}")), obs.into_sampler());
                    }
                };
                let mut m = Measurement::new(seed);
                for &e in &plan.events {
                    m.values.insert(e, result.total(e) as f64);
                }
                m.cycles = result.cycles;
                np_telemetry::counter!("runner.reps_done").inc();
                (Ok(m), obs.into_sampler())
            },
            &Schedule::Free,
        );
        let mut runs = Vec::with_capacity(plan.repetitions);
        let mut sampler = Sampler::new(capacity);
        for (rep, (m, rep_sampler)) in report.results.into_iter().enumerate() {
            runs.push(m?);
            sampler.merge_prefixed(&format!("rep{rep}."), &rep_sampler);
        }
        Ok(SampledCampaign {
            runs: RunSet {
                runs,
                label: "sampled".into(),
            },
            sampler,
            profile: report.profile,
            workers: self.pool.threads(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::HwEvent;
    use np_workloads::cache_miss::CacheMissKernel;

    fn machine() -> MachineConfig {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 5_000;
        cfg.noise.dram_jitter = 0.05;
        cfg
    }

    #[test]
    fn plan_accounting() {
        let plan = MeasurementPlan::all_events(3, 1);
        // 33 programmable events at 4 slots → 9 runs per repetition.
        assert_eq!(plan.total_runs(), 3 * 9);
        let mux = MeasurementPlan::all_events(3, 1).multiplexed();
        assert_eq!(mux.total_runs(), 3);
    }

    #[test]
    fn measure_produces_labelled_runs() {
        let runner = Runner::new(machine());
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::Instructions, HwEvent::L1dMiss],
            3,
            42,
        );
        let rs = runner
            .measure(&CacheMissKernel::row_major(48), &plan)
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert!(rs.label.contains("row-major"));
        assert!(rs.mean(HwEvent::Instructions).unwrap() > 0.0);
    }

    #[test]
    fn parallel_batched_matches_serial() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::column_major(32);
        let program = w.build(runner.sim().config());
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L2Miss],
            4,
            7,
        );
        let par = runner.measure_program(&program, &plan).unwrap();
        let ser = np_counters::acquisition::measure_batched(
            runner.sim(),
            &program,
            &plan.events,
            4,
            7,
            &plan.pmu,
        )
        .expect("valid program");
        for (a, b) in par.runs.iter().zip(&ser.runs) {
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let w = CacheMissKernel::row_major(32);
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L3Access],
            5,
            21,
        );
        let baseline = Runner::new(machine())
            .with_threads(1)
            .measure(&w, &plan)
            .unwrap();
        for threads in [2, 8] {
            let rs = Runner::new(machine())
                .with_threads(threads)
                .measure(&w, &plan)
                .unwrap();
            assert_eq!(rs.len(), baseline.len(), "{threads} threads");
            for (a, b) in rs.runs.iter().zip(&baseline.runs) {
                assert_eq!(a.values, b.values, "{threads} threads");
            }
        }
    }

    /// `machine()` with a timeslice fine enough that small kernels cross
    /// several sampling boundaries.
    fn sampled_machine() -> MachineConfig {
        let mut cfg = machine();
        cfg.timeslice_cycles = 2_000;
        cfg
    }

    #[test]
    fn sampled_campaign_is_deterministic_across_thread_counts() {
        let w = CacheMissKernel::row_major(32);
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L3Access],
            3,
            21,
        );
        let baseline = Runner::new(sampled_machine())
            .with_threads(1)
            .measure_sampled(&w, &plan, 128)
            .unwrap();
        assert!(!baseline.sampler.is_empty());
        let base_json = crate::capture::Capture::from_sampler(
            "two-socket",
            "row-major",
            21,
            3,
            &baseline.sampler,
        );
        for threads in [2, 8] {
            let c = Runner::new(sampled_machine())
                .with_threads(threads)
                .measure_sampled(&w, &plan, 128)
                .unwrap();
            let json =
                crate::capture::Capture::from_sampler("two-socket", "row-major", 21, 3, &c.sampler);
            assert_eq!(
                serde_json::to_string(&base_json).unwrap(),
                serde_json::to_string(&json).unwrap(),
                "{threads} threads"
            );
            // Measured values match the unsampled batched campaign too.
            for (a, b) in c.runs.runs.iter().zip(&baseline.runs.runs) {
                assert_eq!(a.values, b.values, "{threads} threads");
            }
        }
        // And the measurements agree with the plain batched path.
        let plain = Runner::new(sampled_machine())
            .with_threads(1)
            .measure(&w, &plan)
            .unwrap();
        for (a, b) in baseline.runs.runs.iter().zip(&plain.runs) {
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn sampled_capture_attributes_the_measure_phase() {
        let w = CacheMissKernel::row_major(32);
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 2, 3);
        let c = Runner::new(sampled_machine())
            .with_threads(2)
            .measure_sampled(&w, &plan, 64)
            .unwrap();
        let (_, series) = c.sampler.iter().next().expect("series recorded");
        let phases = c.sampler.phases();
        assert!(series
            .bins
            .iter()
            .all(|b| phases[b.phase as usize] == "measure"));
        // The worker profile covers every chunk the fan-out produced.
        assert!(!c.profile.is_empty());
        assert_eq!(
            c.profile.iter().map(|p| p.chunk).collect::<Vec<_>>(),
            (0..c.profile.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_plans_rejected() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::row_major(16);
        let p = w.build(runner.sim().config());
        let empty = MeasurementPlan {
            events: vec![],
            ..MeasurementPlan::all_events(2, 1)
        };
        assert!(runner.measure_program(&p, &empty).is_err());
    }

    #[test]
    fn resilient_campaign_matches_plain_on_a_clean_link() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::row_major(32);
        let program = w.build(runner.sim().config());
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles, HwEvent::L1dMiss], 3, 11);
        let plain = runner.measure_program(&program, &plan).unwrap();
        let resilient = runner
            .measure_program_resilient(
                &program,
                &plan,
                &CampaignPolicy::default(),
                &np_resilience::NoFaults,
            )
            .unwrap();
        assert_eq!(plain.len(), resilient.len());
        for (a, b) in plain.runs.iter().zip(&resilient.runs) {
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn resilient_campaign_retries_through_transient_faults() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::row_major(24);
        let program = w.build(runner.sim().config());
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 3, 5);
        // Two consecutive drops: repetition 1 burns both on attempts 1-2
        // and succeeds on attempt 3; the rest run clean.
        let faults = np_resilience::ScriptedFaults::new().inject_n(
            "acq.batch_run",
            np_resilience::Fault::DropConnection,
            2,
        );
        let policy = CampaignPolicy {
            retry: RetryPolicy::immediate(3),
            ..CampaignPolicy::default()
        };
        let rs = runner
            .measure_program_resilient(&program, &plan, &policy, &faults)
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(faults.remaining(), 0);
    }

    #[test]
    fn campaign_degrades_to_surviving_repetitions() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::row_major(24);
        let program = w.build(runner.sim().config());
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 4, 5);
        // Two consecutive drops exhaust repetition 1's retry budget; the
        // other three repetitions survive untouched.
        let faults = np_resilience::ScriptedFaults::new().inject_n(
            "acq.batch_run",
            np_resilience::Fault::DropConnection,
            2,
        );
        let policy = CampaignPolicy {
            retry: RetryPolicy::immediate(2),
            min_repetitions: 2,
            ..CampaignPolicy::default()
        };
        let rs = runner
            .measure_program_resilient(&program, &plan, &policy, &faults)
            .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn open_circuit_skips_remaining_repetitions() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::row_major(24);
        let program = w.build(runner.sim().config());
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 6, 5);
        // Every attempt faults: two repetitions fail, the breaker trips,
        // and the remaining four are skipped without touching the script.
        let faults = np_resilience::ScriptedFaults::new().inject_n(
            "acq.batch_run",
            np_resilience::Fault::DropConnection,
            100,
        );
        let policy = CampaignPolicy {
            retry: RetryPolicy::immediate(1),
            breaker: np_resilience::BreakerConfig {
                failure_threshold: 2,
                cooldown: std::time::Duration::from_secs(60),
            },
            min_repetitions: 1,
        };
        let err = runner
            .measure_program_resilient(&program, &plan, &policy, &faults)
            .unwrap_err();
        assert!(err.contains("0/6"), "{err}");
        // Only the two pre-trip repetitions consumed faults.
        assert_eq!(faults.remaining(), 98);
    }

    #[test]
    fn repetitions_vary_under_noise() {
        let runner = Runner::new(machine());
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 5, 9);
        let rs = runner
            .measure(&CacheMissKernel::column_major(48), &plan)
            .unwrap();
        let cycles = rs.samples(HwEvent::Cycles);
        assert!(cycles.windows(2).any(|w| w[0] != w[1]), "{cycles:?}");
    }
}

//! The accuracy-aware dynamic-programming autotuner (§2.2–2.3).
//!
//! For each level `k` (grid `N = 2^k + 1`), **after** all accuracies of
//! level `k−1` are tuned, the tuner fills every accuracy slot
//! `plans[k][i]` of the level in one pass, measuring three candidate
//! classes on training instances:
//!
//! * **Direct** — exact, cost known (or measured); priced once per
//!   level;
//! * **RECURSE_j × t** for every `j` — each cycle recursing into the
//!   already-tuned `MULTIGRID-V_j` of level `k−1`;
//! * **SOR(ω_opt) × t**.
//!
//! A candidate's convergence does not depend on the target, so each
//! iterated candidate runs **one trajectory** per training instance and
//! the error-ratio metric is read off it for all targets `p_i` at once:
//! `t` for target `i` is the first iteration that reaches `p_i`. Each
//! target keeps its own incumbent — the cheapest feasible candidate
//! seen so far for that slot, in the order Direct, `RECURSE_0` …
//! `RECURSE_{m−1}`, SOR — as an early-abandon budget, so hopeless SOR
//! runs at large sizes cannot dominate tuning time (the paper instead
//! capped its search space; the effect is the same). A trajectory stops
//! once every target has reached its accuracy or been abandoned, and
//! later instances run only for targets still feasible. The fastest
//! feasible candidate of each slot is stored in the DP table.

mod fmg;
mod knobs;
mod pareto;

pub use fmg::FmgTuner;
pub use knobs::{
    apply_knobs, tune_kernel_knobs, tune_kernel_knobs_for_level, tune_kernel_knobs_seeded,
    KnobTuneResult, KnobTunerOptions, MAX_QUICK_KNOB_LEVEL, RE_MEASURE_SPREAD,
};
pub use pareto::{pareto_front, CandidatePoint, ParetoTuner};

use crate::accuracy::{ratio_of_errors, ACC_CAP};
use crate::cost::{CostModel, MachineProfile, OpCounts};
use crate::plan::{Choice, ExecCtx, TunedFamily, PAPER_ACCURACIES};
use crate::training::{Distribution, ProblemInstance};
use petamg_choice::{KernelKnobs, KnobTable};
use petamg_grid::{l2_diff, level_size, Exec, Grid2d, Workspace};
use petamg_problems::Problem;
use petamg_solvers::relax::{omega_opt, sor_sweep_op};
use petamg_solvers::DirectSolverCache;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Options controlling a tuning run.
#[derive(Clone, Debug)]
pub struct TunerOptions {
    /// Ascending accuracy targets `p_i` (paper: `10, 10³, 10⁵, 10⁷, 10⁹`).
    pub accuracies: Vec<f64>,
    /// Largest level to tune (grid `2^max_level + 1`).
    pub max_level: usize,
    /// Training data distribution.
    pub distribution: Distribution,
    /// Training instances per level.
    pub instances: usize,
    /// RNG seed for training data.
    pub seed: u64,
    /// Cost source (measured wall-clock or modeled machine).
    pub cost_model: CostModel,
    /// Execution policy for training runs.
    pub exec: Exec,
    /// The Direct candidate is only *executed* for grids up to this size
    /// (factor memory grows as N³; modeled costs need no execution).
    pub direct_max_n: usize,
    /// SOR iteration cap multiplier: cap = `sor_cap_mult`·N + 200.
    pub sor_cap_mult: u32,
    /// RECURSE iteration cap.
    pub recurse_cap: u32,
    /// Per-level kernel-knob search. `None` (the presets' default)
    /// fills the family's knob table with the global defaults — knob
    /// timing is wall-clock, so it only pays off when the tuned plan
    /// will actually run on this machine.
    pub knob_search: Option<KnobSearchOptions>,
    /// The posed problem this tuner trains for. The tuned family is
    /// keyed by its fingerprint; every candidate measurement runs the
    /// problem's operator (convergence differs per operator, so plans
    /// genuinely diverge across problems — the paper's central claim).
    pub problem: Problem,
}

/// Budgeted per-level kernel-knob search inside the DP tuner: before a
/// level's candidates are timed, its `(band_rows, tblock)` pair is
/// tuned with the n-ary search, **seeded from the next-coarser level's
/// result** so each level starts at an already-good incumbent and the
/// whole DP stays near `O(levels)` knob timings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobSearchOptions {
    /// N-ary search arms per round.
    pub arms: usize,
    /// N-ary search rounds per axis.
    pub rounds: usize,
    /// Timed cycle repetitions per candidate.
    pub reps: usize,
    /// Budget on knob-timing evaluations across the whole DP run,
    /// checked before each level's search starts — so the final level
    /// to search may overshoot it by one level's worth of evaluations.
    /// Once spent, remaining levels inherit the coarser level's knobs
    /// unchanged.
    pub max_evaluations: usize,
}

impl Default for KnobSearchOptions {
    fn default() -> Self {
        KnobSearchOptions {
            arms: 3,
            rounds: 2,
            reps: 2,
            max_evaluations: 96,
        }
    }
}

impl TunerOptions {
    /// Deterministic quick-tuning preset: modeled Intel-Harpertown cost,
    /// two training instances — ideal for tests and examples.
    pub fn quick(max_level: usize, distribution: Distribution) -> Self {
        TunerOptions {
            accuracies: PAPER_ACCURACIES.to_vec(),
            max_level,
            distribution,
            instances: 2,
            seed: 0x5EED,
            cost_model: CostModel::Modeled(MachineProfile::intel_harpertown()),
            exec: Exec::seq(),
            direct_max_n: 257,
            sor_cap_mult: 60,
            recurse_cap: 120,
            knob_search: None,
            problem: Problem::poisson(),
        }
    }

    /// Pose a different problem (see [`TunerOptions::problem`]).
    ///
    /// # Panics
    /// Panics if a size-bound problem does not cover `max_level`.
    pub fn with_problem(mut self, problem: Problem) -> Self {
        if !problem.level_sizes().is_empty() {
            let n = level_size(self.max_level);
            assert!(
                problem.level_sizes().contains(&n),
                "problem {} does not cover max_level {} (n={n})",
                problem.describe(),
                self.max_level
            );
        }
        self.problem = problem;
        self
    }

    /// Preset with a specific modeled machine.
    pub fn modeled(max_level: usize, distribution: Distribution, profile: MachineProfile) -> Self {
        TunerOptions {
            cost_model: CostModel::Modeled(profile),
            ..Self::quick(max_level, distribution)
        }
    }

    /// Wall-clock tuning on the host machine.
    pub fn measured(max_level: usize, distribution: Distribution, exec: Exec) -> Self {
        TunerOptions {
            cost_model: CostModel::Measured { trials: 2 },
            exec,
            ..Self::quick(max_level, distribution)
        }
    }

    fn sor_cap(&self, n: usize) -> u32 {
        self.sor_cap_mult
            .saturating_mul(n as u32)
            .saturating_add(200)
    }
}

/// One evaluated candidate (diagnostics; the Fig 2(a) scatter data).
#[derive(Clone, Debug)]
pub struct CandidateEval {
    /// Level at which the candidate was evaluated.
    pub level: usize,
    /// Accuracy index it was evaluated for.
    pub acc_idx: usize,
    /// The candidate.
    pub choice: Choice,
    /// Measured accuracy level (error ratio, capped).
    pub accuracy: f64,
    /// Cost in (modeled or measured) seconds.
    pub cost: f64,
    /// Whether this candidate won its `(level, acc)` slot.
    pub selected: bool,
    /// Whether the candidate reached the accuracy target at all.
    pub feasible: bool,
}

/// A tuning run's full diagnostics.
#[derive(Clone, Debug, Default)]
pub struct TuneDiagnostics {
    /// Every candidate evaluated, in evaluation order.
    pub evaluations: Vec<CandidateEval>,
}

impl TuneDiagnostics {
    /// Candidates evaluated for one `(level, acc)` slot.
    pub fn for_slot(&self, level: usize, acc_idx: usize) -> Vec<&CandidateEval> {
        self.evaluations
            .iter()
            .filter(|e| e.level == level && e.acc_idx == acc_idx)
            .collect()
    }
}

/// Outcome of one candidate measurement.
pub(crate) struct Measured {
    pub(crate) feasible: bool,
    pub(crate) accuracy: f64,
    pub(crate) iterations: u32,
    pub(crate) cost: f64,
}

impl Measured {
    /// A candidate given up on after `iterations` at error ratio
    /// `accuracy` (over budget, or out of iterations).
    fn abandoned(accuracy: f64, iterations: u32) -> Self {
        Measured {
            feasible: false,
            accuracy,
            iterations,
            cost: f64::INFINITY,
        }
    }
}

/// A candidate measured by iterating it from `x₀` until it reaches an
/// accuracy target.
#[derive(Clone, Copy)]
pub(crate) enum Iterated<'a> {
    /// `RECURSE_{sub_acc}` cycles into the already-tuned levels of
    /// `partial`.
    Recurse {
        partial: &'a TunedFamily,
        sub_acc: usize,
    },
    /// SOR(ω_opt) sweeps.
    Sor,
}

impl Iterated<'_> {
    /// The plan choice that runs this candidate `iterations` times.
    pub(crate) fn choice(self, iterations: u32) -> Choice {
        match self {
            Iterated::Recurse { sub_acc, .. } => Choice::Recurse {
                sub_accuracy: sub_acc as u8,
                iterations,
            },
            Iterated::Sor => Choice::Sor { iterations },
        }
    }
}

/// One `(level, acc)` slot while its level is being tuned: the
/// candidates evaluated for it so far and its incumbent.
struct Slot {
    level: usize,
    acc_idx: usize,
    evals: Vec<CandidateEval>,
    /// `(cost, iterations, choice)` of the fastest feasible candidate.
    best: Option<(f64, u32, Choice)>,
}

impl Slot {
    fn new(level: usize, acc_idx: usize) -> Self {
        Slot {
            level,
            acc_idx,
            evals: Vec::new(),
            best: None,
        }
    }

    /// The incumbent's cost: the early-abandon budget for the next
    /// candidate.
    fn budget(&self) -> Option<f64> {
        self.best.map(|(cost, _, _)| cost)
    }

    fn consider(&mut self, meas: &Measured, choice: Choice) {
        self.evals.push(CandidateEval {
            level: self.level,
            acc_idx: self.acc_idx,
            choice,
            accuracy: meas.accuracy,
            cost: meas.cost,
            selected: false,
            feasible: meas.feasible,
        });
        if meas.feasible {
            let better = match self.best {
                None => true,
                Some((c, it, _)) => meas.cost < c || (meas.cost == c && meas.iterations < it),
            };
            if better {
                self.best = Some((meas.cost, meas.iterations, choice));
            }
        }
    }

    /// The slot's winner, and its evaluations with the winner flagged.
    fn finish(mut self, target: f64) -> (Choice, Vec<CandidateEval>) {
        let level = self.level;
        let (_, _, winner) = self.best.unwrap_or_else(|| {
            panic!(
                "no feasible candidate at level {level} for accuracy {target:e} \
                 (all iteration caps hit — raise recurse_cap/sor_cap_mult)"
            )
        });
        for e in &mut self.evals {
            if e.choice == winner {
                e.selected = true;
            }
        }
        (winner, self.evals)
    }
}

/// The `MULTIGRID-V_i` dynamic-programming tuner.
pub struct VTuner {
    opts: TunerOptions,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
    /// The per-level knob table built up as the DP ascends levels:
    /// candidate timings at level `k` run with the knobs tuned for the
    /// levels below, and the finished table ships inside the family.
    knobs: RefCell<KnobTable>,
    /// Knob-timing evaluations spent so far (bounded by
    /// [`KnobSearchOptions::max_evaluations`]).
    knob_evals: RefCell<usize>,
}

impl VTuner {
    /// Build a tuner.
    ///
    /// # Panics
    /// Panics on empty/unsorted accuracies, `max_level == 0`, or zero
    /// training instances.
    pub fn new(opts: TunerOptions) -> Self {
        assert!(!opts.accuracies.is_empty(), "need at least one accuracy");
        assert!(
            opts.accuracies.windows(2).all(|w| w[0] < w[1]),
            "accuracies must be ascending"
        );
        assert!(opts.max_level >= 1, "need at least level 1");
        assert!(opts.instances >= 1, "need at least one training instance");
        let max_level = opts.max_level;
        VTuner {
            opts,
            cache: Arc::new(DirectSolverCache::new()),
            workspace: Arc::new(Workspace::new()),
            knobs: RefCell::new(KnobTable::defaults(max_level)),
            knob_evals: RefCell::new(0),
        }
    }

    /// The shared factor cache (useful for benches re-using factors).
    pub fn cache(&self) -> &Arc<DirectSolverCache> {
        &self.cache
    }

    /// The options in use.
    pub fn options(&self) -> &TunerOptions {
        &self.opts
    }

    /// Run the DP and return the tuned family.
    pub fn tune(&self) -> TunedFamily {
        self.tune_with_diagnostics().0
    }

    /// Run the DP, also returning every candidate evaluation.
    pub fn tune_with_diagnostics(&self) -> (TunedFamily, TuneDiagnostics) {
        // Each run starts from a fresh knob table and budget, so a
        // second tune() on the same tuner re-tunes instead of silently
        // inheriting (or discarding) the previous run's table.
        *self.knobs.borrow_mut() = KnobTable::defaults(self.opts.max_level);
        *self.knob_evals.borrow_mut() = 0;
        let m = self.opts.accuracies.len();
        let mut diags = TuneDiagnostics::default();
        let mut plans: Vec<Vec<Choice>> = vec![Vec::new(); self.opts.max_level + 1];
        plans[1] = vec![Choice::Direct; m];

        for k in 2..=self.opts.max_level {
            // Tune this level's kernel knobs first (seeded from the
            // next-coarser level) so every candidate timing below runs
            // with level-appropriate knobs.
            self.tune_level_knobs(k);
            let mut instances = self.training_instances(k);
            for inst in &mut instances {
                inst.ensure_x_opt(&self.opts.exec, &self.cache);
            }
            let partial = self.family_view(&plans, k);
            let (choices, evals) = self.tune_level(&partial, k, &instances);
            diags.evaluations.extend(evals);
            plans[k] = choices;
        }

        let family = TunedFamily {
            accuracies: self.opts.accuracies.clone(),
            max_level: self.opts.max_level,
            plans,
            knobs: self.knobs.borrow().clone(),
            problem: self.opts.problem.fingerprint().clone(),
            provenance: format!(
                "VTuner(dist={}, cost={}, seed={}, instances={})",
                self.opts.distribution.name(),
                match &self.opts.cost_model {
                    CostModel::Measured { .. } => "measured".to_string(),
                    CostModel::Modeled(p) => format!("modeled:{}", p.name),
                },
                self.opts.seed,
                self.opts.instances,
            ),
        };
        family
            .validate()
            .expect("tuner must produce a structurally valid family");
        (family, diags)
    }

    /// Tune every accuracy slot of `level` in one pass. Direct is
    /// priced once; each iterated candidate then runs once per training
    /// instance and its error-ratio trajectory is read off for all
    /// targets at once (a candidate's convergence does not depend on
    /// the target). Each slot keeps its own incumbent as the
    /// early-abandon budget and sees its candidates in the order Direct,
    /// `RECURSE_0` … `RECURSE_{m−1}`, SOR; the fastest feasible one wins.
    fn tune_level(
        &self,
        partial: &TunedFamily,
        level: usize,
        instances: &[ProblemInstance],
    ) -> (Vec<Choice>, Vec<CandidateEval>) {
        let m = self.opts.accuracies.len();
        let mut slots: Vec<Slot> = (0..m).map(|acc_idx| Slot::new(level, acc_idx)).collect();

        // 1. Direct (cheap to price).
        if let Some(meas) = self.measure_direct(level, instances) {
            for slot in &mut slots {
                slot.consider(&meas, Choice::Direct);
            }
        }

        // 2. RECURSE_j for every sub-accuracy, then 3. SOR.
        let iterated = (0..m)
            .map(|sub_acc| Iterated::Recurse { partial, sub_acc })
            .chain([Iterated::Sor]);
        for cand in iterated {
            let budgets: Vec<Option<f64>> = slots.iter().map(Slot::budget).collect();
            let measured = self.measure_iterated(level, cand, &budgets, instances);
            for (slot, meas) in slots.iter_mut().zip(&measured) {
                slot.consider(meas, cand.choice(meas.iterations));
            }
        }

        let mut plans = Vec::with_capacity(m);
        let mut evals = Vec::new();
        for (slot, &target) in slots.into_iter().zip(&self.opts.accuracies) {
            let (winner, slot_evals) = slot.finish(target);
            plans.push(winner);
            evals.extend(slot_evals);
        }
        (plans, evals)
    }

    /// Search the kernel-knob space for `level`, seeded from the
    /// next-coarser level's result, honouring the evaluation budget.
    /// No-op when `knob_search` is disabled (the table keeps its
    /// defaults).
    fn tune_level_knobs(&self, level: usize) {
        let Some(search) = &self.opts.knob_search else {
            return;
        };
        let seed: KernelKnobs = self.knobs.borrow().get(level - 1);
        let spent = *self.knob_evals.borrow();
        if spent >= search.max_evaluations {
            // Budget exhausted: inherit the coarser level's knobs.
            self.knobs.borrow_mut().set(level, seed);
            return;
        }
        let opts = KnobTunerOptions {
            level,
            arms: search.arms,
            rounds: search.rounds,
            reps: search.reps,
            seed: self.opts.seed ^ 0x6B_6E_6F_62, // "knob"
            // Knob timings must run the posed family's own kernels: a
            // var-coeff plan knob-tuned on Poisson rows would lock in
            // the wrong band/tblock.
            problem: self.opts.problem.clone(),
        };
        let table = self.knobs.borrow().clone();
        let result = knobs::tune_kernel_knobs_for_level(&self.opts.exec, &opts, &table);
        *self.knob_evals.borrow_mut() = spent + result.evaluations;
        self.knobs.borrow_mut().set(level, result.knobs);
    }

    /// The per-level knob table tuned so far (defaults where the DP has
    /// not reached yet, or everywhere when `knob_search` is off).
    pub fn knob_table(&self) -> KnobTable {
        self.knobs.borrow().clone()
    }

    /// Seed the knob table from an existing family (used by the FMG
    /// tuner layering over an already-tuned V family).
    pub(crate) fn adopt_knob_table(&self, table: KnobTable) {
        *self.knobs.borrow_mut() = table;
    }

    pub(crate) fn training_instances(&self, level: usize) -> Vec<ProblemInstance> {
        crate::training::training_set_for(
            &self.opts.problem,
            level,
            self.opts.distribution,
            self.opts.instances,
            self.opts.seed ^ ((level as u64) << 20),
        )
    }

    /// A read-only family over the levels tuned so far (plans at or
    /// above `below_level` are absent and must not be executed). The
    /// knob table is truncated to match, keeping the partial family
    /// consistent with `TunedFamily::validate`'s shape invariant.
    pub(crate) fn family_view(&self, plans: &[Vec<Choice>], below_level: usize) -> TunedFamily {
        let mut knobs = self.knobs.borrow().clone();
        knobs.per_level.truncate(below_level);
        TunedFamily {
            accuracies: self.opts.accuracies.clone(),
            max_level: below_level.saturating_sub(1).max(1),
            plans: plans[..below_level].to_vec(),
            knobs,
            problem: self.opts.problem.fingerprint().clone(),
            provenance: "partial (tuning in progress)".into(),
        }
    }

    /// A counting context sharing the tuner's factor cache and scratch
    /// arena (so back-to-back candidate evaluations never re-allocate
    /// coarse-grid scratch). Carries the knob table tuned so far (when
    /// it holds real tuning), so candidate timings run each level with
    /// level-appropriate knobs without overriding a hand-configured
    /// `opts.exec` in the untuned case.
    pub(crate) fn fresh_ctx(&self) -> ExecCtx {
        let mut ctx = ExecCtx::with_cache(self.opts.exec.clone(), Arc::clone(&self.cache))
            .with_workspace(Arc::clone(&self.workspace))
            .with_problem(self.opts.problem.clone());
        let table = self.knobs.borrow();
        if !table.is_all_default() {
            ctx = ctx.with_knob_table(table.clone());
        }
        ctx
    }

    /// Price one set of op counts (modeled mode only).
    pub(crate) fn modeled_cost(&self, ops: &OpCounts) -> Option<f64> {
        self.opts.cost_model.profile().map(|p| p.time(ops))
    }

    // ----- candidate measurements ------------------------------------

    pub(crate) fn measure_direct(
        &self,
        level: usize,
        instances: &[ProblemInstance],
    ) -> Option<Measured> {
        let n = level_size(level);
        match &self.opts.cost_model {
            CostModel::Modeled(p) => {
                // Accuracy is exact by construction; cost is analytic —
                // no execution needed even at huge sizes.
                let mut ops = OpCounts::new(level);
                ops.level_mut(level).direct_solves = 1;
                Some(Measured {
                    feasible: true,
                    accuracy: ACC_CAP,
                    iterations: 1,
                    cost: p.time(&ops),
                })
            }
            CostModel::Measured { trials } => {
                if n > self.opts.direct_max_n {
                    return None; // factoring would blow memory/time
                }
                let op = self.opts.problem.op_for(n);
                self.cache.warm_op(n, &op); // factor outside timing
                let inst = &instances[0];
                let mut best = f64::INFINITY;
                for _ in 0..(*trials).max(1) {
                    let mut x = inst.working_grid();
                    let start = Instant::now();
                    self.cache.solve_op(&mut x, &inst.b, &op);
                    best = best.min(start.elapsed().as_secs_f64());
                }
                Some(Measured {
                    feasible: true,
                    accuracy: ACC_CAP,
                    iterations: 1,
                    cost: best,
                })
            }
        }
    }

    /// Iterate `cand` from `x₀` on each training instance, reading one
    /// error-ratio trajectory off for every accuracy target of the
    /// level. Target `i` is reached at the first iteration whose ratio
    /// meets it, and abandoned (infeasible) once the iterations' modeled
    /// cost passes 1.5 × `budgets[i]` — or, when timing, the wall time
    /// passes 3 × `budgets[i]` — or the iteration cap is hit. A
    /// trajectory stops once no target is pending; later instances run
    /// only while some target is still feasible. A feasible target's
    /// iterations are the max over instances, its accuracy the min.
    pub(crate) fn measure_iterated(
        &self,
        level: usize,
        cand: Iterated<'_>,
        budgets: &[Option<f64>],
        instances: &[ProblemInstance],
    ) -> Vec<Measured> {
        let targets = &self.opts.accuracies;
        assert_eq!(budgets.len(), targets.len(), "one budget per target");
        let exec = &self.opts.exec;
        let n = level_size(level);
        let op = self.opts.problem.op_for(n);
        let omega = omega_opt(n);
        let step = |x: &mut Grid2d, b: &Grid2d, ctx: &mut ExecCtx| match cand {
            Iterated::Recurse { partial, sub_acc } => {
                partial.recurse_step(level, sub_acc, x, b, ctx)
            }
            Iterated::Sor => sor_sweep_op(&op, x, b, omega, exec),
        };
        // Modeled cost of one iteration: analytic for a sweep, priced
        // off the first RECURSE iteration's op counts otherwise.
        let (cap, mut iter_cost) = match cand {
            Iterated::Recurse { .. } => (self.opts.recurse_cap, None),
            Iterated::Sor => {
                let mut ops = OpCounts::new(level);
                ops.level_mut(level).relax_sweeps = 1;
                (self.opts.sor_cap(n), self.modeled_cost(&ops))
            }
        };

        // `None` while a target is still feasible.
        let mut settled: Vec<Option<Measured>> = targets.iter().map(|_| None).collect();
        let mut iterations = vec![0u32; targets.len()];
        let mut worst_ratio = vec![f64::INFINITY; targets.len()];
        let wall_start = Instant::now();
        for inst in instances {
            let mut pending: Vec<bool> = settled.iter().map(Option::is_none).collect();
            if !pending.contains(&true) {
                break;
            }
            let x_opt = inst.x_opt().expect("training instances carry x_opt");
            let mut x = inst.working_grid();
            let e0 = l2_diff(&inst.x0, x_opt, exec);
            let mut ctx = self.fresh_ctx();
            let mut it = 0u32;
            let mut ratio = 1.0;
            while it < cap && pending.contains(&true) {
                step(&mut x, &inst.b, &mut ctx);
                it += 1;
                if it == 1 && iter_cost.is_none() {
                    iter_cost = self.modeled_cost(&ctx.ops);
                }
                ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, exec));
                let wall = (self.opts.cost_model.needs_timing())
                    .then(|| wall_start.elapsed().as_secs_f64());
                for (i, live) in pending.iter_mut().enumerate() {
                    if !*live {
                        continue;
                    }
                    if ratio >= targets[i] {
                        *live = false;
                        iterations[i] = iterations[i].max(it);
                        worst_ratio[i] = worst_ratio[i].min(ratio);
                    } else if let Some(b) = budgets[i] {
                        let over_model = iter_cost.is_some_and(|c| it as f64 * c > b * 1.5);
                        let over_wall = wall.is_some_and(|w| w > (3.0 * b).max(0.25));
                        if over_model || over_wall {
                            *live = false;
                            settled[i] = Some(Measured::abandoned(ratio, it));
                        }
                    }
                }
            }
            // Whatever is still pending hit the iteration cap.
            for (outcome, live) in settled.iter_mut().zip(pending) {
                if live {
                    *outcome = Some(Measured::abandoned(ratio, it));
                }
            }
        }

        let costs = match &self.opts.cost_model {
            // No iteration was priced only if none ran, and then no
            // target is feasible.
            CostModel::Modeled(_) => (iterations.iter())
                .map(|&it| iter_cost.map_or(f64::INFINITY, |c| c * it as f64))
                .collect(),
            CostModel::Measured { trials } => {
                // One timed run per trial up to the longest feasible
                // count, read off at each target's own count.
                let inst = &instances[0];
                let longest = (settled.iter().zip(&iterations))
                    .filter(|(outcome, _)| outcome.is_none())
                    .map(|(_, &it)| it)
                    .max()
                    .unwrap_or(0);
                let mut best = vec![f64::INFINITY; targets.len()];
                for _ in 0..(*trials).max(1) {
                    let mut ctx = self.fresh_ctx();
                    let mut x = inst.working_grid();
                    let start = Instant::now();
                    for it in 1..=longest {
                        step(&mut x, &inst.b, &mut ctx);
                        let elapsed = start.elapsed().as_secs_f64();
                        for (t, &n_it) in best.iter_mut().zip(&iterations) {
                            if n_it == it {
                                *t = t.min(elapsed);
                            }
                        }
                    }
                }
                best
            }
        };
        (settled.into_iter().enumerate())
            .map(|(i, outcome)| {
                outcome.unwrap_or(Measured {
                    feasible: true,
                    accuracy: worst_ratio[i],
                    iterations: iterations[i],
                    cost: costs[i],
                })
            })
            .collect()
    }

    /// Price a finished plan on a problem (modeled only): one
    /// representative solve, op-counted and converted to seconds. Used by
    /// the architecture-comparison figures and cross-tuning studies.
    pub fn modeled_solve_cost(
        &self,
        family: &TunedFamily,
        level: usize,
        acc_idx: usize,
        inst: &ProblemInstance,
    ) -> Option<f64> {
        let profile = self.opts.cost_model.profile()?;
        let mut ctx = self.fresh_ctx();
        let mut x = inst.working_grid();
        family.run(level, acc_idx, &mut x, &inst.b, &mut ctx);
        Some(profile.time(&ctx.ops))
    }
}

/// Price an arbitrary execution's op counts on a machine profile.
pub fn price_ops(profile: &MachineProfile, ops: &OpCounts) -> f64 {
    profile.time(ops)
}

/// Helper for figures: execute `f` with a counting context and price it.
pub fn priced_run(
    profile: &MachineProfile,
    exec: &Exec,
    cache: &Arc<DirectSolverCache>,
    f: impl FnOnce(&mut ExecCtx),
) -> (f64, OpCounts) {
    let mut ctx = ExecCtx::with_cache(exec.clone(), Arc::clone(cache));
    f(&mut ctx);
    (profile.time(&ctx.ops), ctx.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Choice;
    use petamg_choice::SimdPolicy;

    fn quick_tuner(max_level: usize) -> VTuner {
        VTuner::new(TunerOptions::quick(
            max_level,
            Distribution::UnbiasedUniform,
        ))
    }

    #[test]
    fn tuned_family_is_valid_and_deep() {
        let fam = quick_tuner(5).tune();
        fam.validate().unwrap();
        assert_eq!(fam.max_level, 5);
        assert_eq!(fam.num_accuracies(), 5);
    }

    #[test]
    fn level1_is_always_direct() {
        let fam = quick_tuner(3).tune();
        for i in 0..fam.num_accuracies() {
            assert_eq!(fam.plan(1, i), Choice::Direct);
        }
    }

    #[test]
    fn tuning_is_deterministic_with_modeled_cost() {
        let a = quick_tuner(4).tune();
        let b = quick_tuner(4).tune();
        assert_eq!(a.plans, b.plans);
    }

    #[test]
    fn tuned_plans_meet_their_accuracy_targets_on_fresh_data() {
        let fam = quick_tuner(5).tune();
        // Held-out instance (different seed from training).
        for (i, &target) in fam.accuracies.clone().iter().enumerate() {
            let mut inst =
                ProblemInstance::random(5, Distribution::UnbiasedUniform, 987_654 + i as u64);
            let report = fam.solve(&mut inst, target);
            // Allow a modest shortfall: training data is representative,
            // not identical (paper §2.2 makes the same assumption).
            assert!(
                report.achieved_accuracy >= target * 0.5,
                "acc {i} target {target:e}: achieved {:e}",
                report.achieved_accuracy
            );
        }
    }

    #[test]
    fn direct_wins_small_grids_recursion_wins_large() {
        let fam = quick_tuner(7).tune();
        let m = fam.num_accuracies();
        // Level 2 (5x5): direct is essentially free -> should be chosen
        // at least for the highest accuracy.
        assert_eq!(
            fam.plan(2, m - 1),
            Choice::Direct,
            "tiny grid, max accuracy should solve directly"
        );
        // Level 7 (129x129): direct O(cells^1.5) is far more expensive
        // than multigrid; recursion/iteration must win for low accuracy.
        assert!(
            matches!(fam.plan(7, 0), Choice::Recurse { .. } | Choice::Sor { .. }),
            "large grid must not solve directly for p=10, got {:?}",
            fam.plan(7, 0)
        );
    }

    #[test]
    fn higher_accuracy_never_cheaper() {
        // Within a level, the modeled cost of the chosen plan must be
        // non-decreasing in the accuracy target (a cheaper plan
        // achieving more would have been picked for the lower target).
        let tuner = quick_tuner(6);
        let (fam, diags) = tuner.tune_with_diagnostics();
        for k in 2..=6 {
            let mut prev_cost = 0.0;
            for i in 0..fam.num_accuracies() {
                let slot = diags.for_slot(k, i);
                let sel: Vec<_> = slot.iter().filter(|e| e.selected).collect();
                assert!(!sel.is_empty(), "slot ({k},{i}) has a winner");
                let cost = sel[0].cost;
                assert!(
                    cost >= prev_cost * 0.999,
                    "level {k}: acc {i} cost {cost} < previous {prev_cost}"
                );
                prev_cost = cost;
            }
        }
    }

    #[test]
    fn winner_is_cheapest_feasible_candidate() {
        let tuner = quick_tuner(5);
        let (_, diags) = tuner.tune_with_diagnostics();
        for k in 2..=5 {
            for i in 0..5 {
                let slot = diags.for_slot(k, i);
                let winner = slot.iter().find(|e| e.selected).expect("winner exists");
                for e in &slot {
                    if e.feasible && e.cost.is_finite() {
                        assert!(
                            winner.cost <= e.cost,
                            "({k},{i}): winner {} beaten by {} ({})",
                            winner.cost,
                            e.cost,
                            e.choice.describe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn different_machine_profiles_can_disagree() {
        // The Sun Niagara profile makes direct solves ~9x pricier per
        // unit; the tuned families must differ somewhere (the §4.3
        // architecture-dependence claim).
        let intel = VTuner::new(TunerOptions::modeled(
            6,
            Distribution::UnbiasedUniform,
            MachineProfile::intel_harpertown(),
        ))
        .tune();
        let sun = VTuner::new(TunerOptions::modeled(
            6,
            Distribution::UnbiasedUniform,
            MachineProfile::sun_niagara(),
        ))
        .tune();
        assert_ne!(
            intel.plans, sun.plans,
            "architecturally distinct machines should tune differently"
        );
    }

    #[test]
    fn measured_mode_runs_and_validates() {
        // Wall-clock tuning on tiny levels (keeps CI fast).
        let fam = VTuner::new(TunerOptions::measured(
            3,
            Distribution::UnbiasedUniform,
            Exec::seq(),
        ))
        .tune();
        fam.validate().unwrap();
        let mut inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 777);
        let report = fam.solve(&mut inst, 1e5);
        assert!(report.achieved_accuracy >= 1e4);
    }

    #[test]
    fn biased_distribution_tunes_too() {
        let fam = VTuner::new(TunerOptions::quick(4, Distribution::BiasedUniform)).tune();
        fam.validate().unwrap();
        let mut inst = ProblemInstance::random(4, Distribution::BiasedUniform, 31337);
        let report = fam.solve(&mut inst, 1e5);
        assert!(
            report.achieved_accuracy >= 5e4,
            "{}",
            report.achieved_accuracy
        );
    }

    #[test]
    fn no_knob_search_gives_default_table() {
        let fam = quick_tuner(4).tune();
        assert_eq!(fam.knobs, KnobTable::defaults(4));
    }

    #[test]
    fn knob_search_produces_valid_in_domain_tables() {
        let mut opts = TunerOptions::quick(3, Distribution::UnbiasedUniform);
        opts.knob_search = Some(KnobSearchOptions {
            arms: 2,
            rounds: 1,
            reps: 1,
            max_evaluations: 16,
        });
        let fam = VTuner::new(opts).tune();
        fam.validate().unwrap();
        assert_eq!(fam.knobs.max_level(), 3);
        // Tables round-trip with the rest of the plan.
        let back = TunedFamily::from_json(&fam.to_json()).unwrap();
        assert_eq!(back.knobs, fam.knobs);
    }

    #[test]
    fn tune_starts_from_a_fresh_knob_table() {
        // A stale table (e.g. adopted from a previous FMG layering, or
        // left over from an earlier tune() run) must not leak into a
        // new tuning run.
        let tuner = quick_tuner(3);
        let mut stale = KnobTable::defaults(3);
        stale.set(
            3,
            KernelKnobs {
                band_rows: 4,
                tblock: 4,
                simd: SimdPolicy::Auto,
            },
        );
        tuner.adopt_knob_table(stale);
        let fam = tuner.tune();
        assert_eq!(
            fam.knobs,
            KnobTable::defaults(3),
            "tune() must reset knob state, not inherit it"
        );
    }

    #[test]
    fn knob_budget_zero_inherits_coarser_knobs() {
        // With the budget already spent, every level inherits the
        // next-coarser level's knobs — i.e. the level-1 defaults
        // propagate up and the table stays uniform.
        let mut opts = TunerOptions::quick(3, Distribution::UnbiasedUniform);
        opts.knob_search = Some(KnobSearchOptions {
            max_evaluations: 0,
            ..Default::default()
        });
        let fam = VTuner::new(opts).tune();
        assert!(fam.knobs.is_uniform());
        assert_eq!(fam.knobs.get(3), KernelKnobs::default());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_accuracies() {
        let mut opts = TunerOptions::quick(3, Distribution::UnbiasedUniform);
        opts.accuracies = vec![1e5, 1e3];
        let _ = VTuner::new(opts);
    }
}

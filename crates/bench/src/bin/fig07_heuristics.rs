//! Fig 7: wall-clock time to solve to accuracy 1e9 (biased uniform
//! data) — fixed heuristic strategies 10^9 and 10^x/10^9 vs the
//! autotuned algorithm. Fig 8 prints the same data as ratios; this
//! binary emits both (columns are seconds; the trailing block is the
//! ratio view).

use petamg_bench::{banner, env_max_level, n_of, time_best};
use petamg_core::heuristics::paper_strategies;
use petamg_core::plan::ExecCtx;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_core::tuner::{TunerOptions, VTuner};
use petamg_grid::Exec;
use petamg_solvers::DirectSolverCache;
use std::sync::Arc;

fn main() {
    let max_level = env_max_level(9);
    banner(
        "Figure 7",
        "time (s) to accuracy 1e9, biased data: heuristics vs autotuned",
        "Strategies pin the per-level accuracy requirement; the autotuner may\n\
         choose it freely per level. Sizes below N=65 are omitted (all\n\
         strategies call the direct method there, as in the paper).",
    );

    let opts = TunerOptions::measured(max_level, Distribution::BiasedUniform, Exec::seq());
    eprintln!("tuning autotuned family ...");
    let tuned = VTuner::new(opts.clone()).tune();
    eprintln!("building heuristic strategies ...");
    let strategies = paper_strategies(&opts);

    let exec = Exec::seq();
    let names: Vec<&str> = strategies.iter().map(|(n, _)| n.as_str()).collect();
    println!(
        "N,{},autotuned_s",
        names.join("_s,").replace(' ', "_") + "_s"
    );

    let mut all_rows: Vec<(usize, Vec<f64>, f64)> = Vec::new();
    for level in 6..=max_level {
        let n = n_of(level);
        let cache = Arc::new(DirectSolverCache::new());
        let inst = ProblemInstance::random(level, Distribution::BiasedUniform, 700 + level as u64);

        let time_family = |fam: &petamg_core::plan::TunedFamily| {
            let acc = fam.num_accuracies() - 1;
            fam.warm_factors_for(&inst.problem, level, acc, &cache);
            time_best(2, || {
                let mut ctx = ExecCtx::with_cache(exec.clone(), Arc::clone(&cache));
                let mut x = inst.working_grid();
                fam.run(level, acc, &mut x, &inst.b, &mut ctx);
            })
        };

        let heur_times: Vec<f64> = strategies.iter().map(|(_, f)| time_family(f)).collect();
        let auto_time = {
            let acc = tuned.acc_index_for(1e9);
            tuned.warm_factors_for(&inst.problem, level, acc, &cache);
            time_best(2, || {
                let mut ctx = ExecCtx::with_cache(exec.clone(), Arc::clone(&cache));
                let mut x = inst.working_grid();
                tuned.run(level, acc, &mut x, &inst.b, &mut ctx);
            })
        };

        let cols = heur_times
            .iter()
            .map(|t| format!("{t:.6}"))
            .collect::<Vec<_>>()
            .join(",");
        println!("{n},{cols},{auto_time:.6}");
        all_rows.push((n, heur_times, auto_time));
    }

    println!("#");
    println!("# Figure 8 view — times slower than autotuned (ratio):");
    println!("N,{}", names.join(",").replace(' ', "_"));
    for (n, heur, auto) in &all_rows {
        let cols = heur
            .iter()
            .map(|t| format!("{:.2}", t / auto))
            .collect::<Vec<_>>()
            .join(",");
        println!("{n},{cols}");
    }
    println!(
        "# paper shape check: as N grows the best heuristic shifts from 10^1/10^9\n\
         # toward 10^5/10^9, and the autotuned row is the fastest throughout."
    );
}

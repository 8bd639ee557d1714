//! The "Solve directly" algorithmic choice, with factor caching.
//!
//! The paper's tuned algorithms call the direct solver at the multigrid
//! base case and wherever the tuner decides a shortcut is cheaper. The
//! Cholesky factor of the interior system depends only on the grid size
//! and the operator, so we factor once per `(size, operator)` and reuse
//! it across calls (LAPACK's `DPBSV` refactors every call; both
//! behaviours are exposed so the difference can be ablated).

use parking_lot::Mutex;
use petamg_grid::Grid2d;
use petamg_linalg::{LinalgError, PoissonDirect};
use petamg_problems::{OpDirect, StencilOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Default bound on the number of factors a [`DirectSolverCache`]
/// retains. Factor memory grows as `O(N^1.5)` per entry, so an
/// unbounded cache shared across a serving workload would grow without
/// limit; 64 distinct `(size, operator)` pairs is far beyond what any
/// single tuning run or serving mix touches.
pub const DEFAULT_FACTOR_CAPACITY: usize = 64;

/// Cache key: grid size and [`StencilOp::cache_key`].
type FactorKey = (usize, u64);

/// The LRU map behind [`DirectSolverCache`]: every hit stamps the entry
/// with a fresh tick, and the entry with the smallest stamp is the
/// eviction victim.
#[derive(Default)]
struct LruFactors {
    map: HashMap<FactorKey, (Arc<OpDirect>, u64)>,
    /// Monotonic LRU clock.
    tick: u64,
    evictions: u64,
}

impl LruFactors {
    fn get(&mut self, key: &FactorKey) -> Option<Arc<OpDirect>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(f, stamp)| {
            *stamp = tick;
            Arc::clone(f)
        })
    }

    /// Insert `fresh` under `key` unless a concurrent caller got there
    /// first, evicting least-recently-used entries to stay within
    /// `capacity`. Returns the factor now cached under `key`.
    fn insert(&mut self, key: FactorKey, fresh: Arc<OpDirect>, capacity: usize) -> Arc<OpDirect> {
        if let Some(f) = self.get(&key) {
            return f;
        }
        while self.map.len() >= capacity {
            let oldest = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp);
            let Some(victim) = oldest.map(|(k, _)| *k) else {
                break;
            };
            self.map.remove(&victim);
            self.evictions += 1;
        }
        self.map.insert(key, (Arc::clone(&fresh), self.tick));
        fresh
    }
}

/// A thread-safe cache of band-Cholesky factors keyed by
/// `(size, operator content)` — one map for every operator family,
/// [`StencilOp::Poisson`] included.
///
/// The cache is **bounded**: it holds at most `capacity` factors
/// (default [`DEFAULT_FACTOR_CAPACITY`]) and evicts the
/// least-recently-used factor when full, so a long-running serving
/// process that touches many `(size, operator)` pairs cannot grow the
/// cache without limit. Eviction only drops the cache's reference —
/// outstanding `Arc`s held by in-flight solves stay valid.
pub struct DirectSolverCache {
    factors: Mutex<LruFactors>,
    capacity: usize,
}

impl Default for DirectSolverCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FACTOR_CAPACITY)
    }
}

impl DirectSolverCache {
    /// Empty cache with the default capacity bound
    /// ([`DEFAULT_FACTOR_CAPACITY`] factors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache retaining at most `capacity` factors (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        DirectSolverCache {
            factors: Mutex::new(LruFactors::default()),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of factors retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many factors have been evicted to honour the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.factors.lock().evictions
    }

    /// Get (or build) the factored solver for operator `op` on `n×n`
    /// grids, keyed by `(n, op.cache_key())`.
    ///
    /// # Panics
    /// Panics if the operator fails to factor — impossible for the SPD
    /// operators `petamg-problems` produces.
    pub fn get_op(&self, n: usize, op: &StencilOp) -> Arc<OpDirect> {
        self.try_get_op(n, op)
            .expect("operator-family systems are SPD and must factor")
    }

    /// Fallible variant of [`DirectSolverCache::get_op`]: returns the
    /// factorization error instead of panicking, so callers on a
    /// degradation path (e.g. the guarded-solve ladder) can convert a
    /// failed factor into a typed failure. A fault-injection hook in
    /// `petamg-core` drives the error arm in chaos tests.
    pub fn try_get_op(&self, n: usize, op: &StencilOp) -> Result<Arc<OpDirect>, LinalgError> {
        let key = (n, op.cache_key());
        if let Some(f) = self.factors.lock().get(&key) {
            return Ok(f);
        }
        // Factor outside the lock so concurrent first requests for
        // different keys don't serialize.
        let fresh = Arc::new(OpDirect::new(op.clone(), n)?);
        Ok(self.factors.lock().insert(key, fresh, self.capacity))
    }

    /// Solve `A x = b` for operator `op` via the cached factor
    /// (boundary-aware; see [`OpDirect::solve`]).
    pub fn solve_op(&self, x: &mut Grid2d, b: &Grid2d, op: &StencilOp) {
        self.get_op(x.n(), op).solve(x, b);
    }

    /// Pre-factor `op` at size `n`, so a later
    /// [`DirectSolverCache::solve_op`] pays no factorization inside a
    /// timed region.
    pub fn warm_op(&self, n: usize, op: &StencilOp) {
        let _ = self.get_op(n, op);
    }

    /// Number of factors currently cached.
    pub fn len(&self) -> usize {
        self.factors.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached factors.
    pub fn clear(&self) {
        self.factors.lock().map.clear();
    }
}

/// Poisson factor-and-solve without caching — the literal `DPBSV`
/// behaviour, kept for the cache ablation benchmark. It factors through
/// [`PoissonDirect`], not [`OpDirect`], so tests also use it as an
/// independent reference for the cached path.
pub fn direct_solve_uncached(x: &mut Grid2d, b: &Grid2d) {
    PoissonDirect::new(x.n())
        .expect("5-point Poisson operator is SPD and must factor")
        .solve(x, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_grid::{l2_diff, Exec};
    use petamg_problems::Problem;

    const POISSON: &StencilOp = &StencilOp::Poisson;

    #[test]
    fn cache_reuses_factor() {
        let cache = DirectSolverCache::new();
        let f1 = cache.get_op(9, POISSON);
        let f2 = cache.get_op(9, POISSON);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(cache.len(), 1);
        let _ = cache.get_op(17, POISSON);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn one_factor_per_size_and_operator() {
        // Every entry point (solve, warm, the guard's fallible lookup)
        // reaches the same factor for the same (n, operator).
        let n = 17;
        let cache = DirectSolverCache::new();
        let b = Grid2d::from_fn(n, |i, j| (i * 3 + j) as f64);
        let mut x = Grid2d::zeros(n);
        cache.solve_op(&mut x, &b, POISSON);
        let solved_with = cache.get_op(n, POISSON);
        let guard_factor = cache.try_get_op(n, POISSON).unwrap();
        assert!(Arc::ptr_eq(&solved_with, &guard_factor));
        cache.warm_op(n, POISSON);
        assert_eq!(cache.len(), 1, "Poisson at n={n} is factored once");
    }

    #[test]
    fn cached_and_uncached_agree() {
        let b = Grid2d::from_fn(9, |i, j| ((i * 5 + j * 3) % 11) as f64 - 5.0);
        let mut x1 = Grid2d::zeros(9);
        x1.set_boundary(|i, j| (i + j) as f64);
        let mut x2 = x1.clone();
        let cache = DirectSolverCache::new();
        cache.solve_op(&mut x1, &b, POISSON);
        direct_solve_uncached(&mut x2, &b);
        assert!(l2_diff(&x1, &x2, &Exec::seq()) < 1e-12);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = DirectSolverCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let f9 = cache.get_op(9, POISSON);
        let _f17 = cache.get_op(17, POISSON);
        assert_eq!(cache.len(), 2);
        // Touch 9 so 17 becomes the LRU victim, then insert a third.
        let f9_again = cache.get_op(9, POISSON);
        assert!(Arc::ptr_eq(&f9, &f9_again), "touch must not refactor");
        let _f33 = cache.get_op(33, POISSON);
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.evictions(), 1);
        // 9 (recently touched) survived; 17 was evicted and refactors.
        let f9_survivor = cache.get_op(9, POISSON);
        assert!(Arc::ptr_eq(&f9, &f9_survivor), "MRU entry survived");
    }

    #[test]
    fn poisson_and_operator_factors_share_one_lru_bound() {
        let cache = DirectSolverCache::with_capacity(2);
        let aniso = Problem::anisotropic(0.5);
        let _p = cache.get_op(9, POISSON);
        let op1 = cache.get_op(9, &aniso.op_for(9));
        assert_eq!(cache.len(), 2);
        // The Poisson factor is now the stalest entry: a new operator
        // factor evicts it, not the fresher anisotropic factor.
        let _op2 = cache.get_op(17, &aniso.op_for(17));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let op1_again = cache.get_op(9, &aniso.op_for(9));
        assert!(Arc::ptr_eq(&op1, &op1_again), "op factor survived");
        assert_eq!(cache.evictions(), 1, "the survivor was a hit");
    }

    #[test]
    fn evicted_factors_stay_usable_through_outstanding_arcs() {
        let cache = DirectSolverCache::with_capacity(1);
        let f9 = cache.get_op(9, POISSON);
        let _f17 = cache.get_op(17, POISSON); // evicts 9 from the cache
        assert_eq!(cache.len(), 1);
        // The Arc we hold is unaffected by eviction.
        let b = Grid2d::from_fn(9, |i, j| (i + j) as f64);
        let mut x = Grid2d::zeros(9);
        f9.solve(&mut x, &b);
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(DirectSolverCache::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    let n = if t % 2 == 0 { 9 } else { 17 };
                    for _ in 0..10 {
                        let b = Grid2d::from_fn(n, |i, j| (i + j + t) as f64);
                        let mut x = Grid2d::zeros(n);
                        cache.solve_op(&mut x, &b, POISSON);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
    }
}

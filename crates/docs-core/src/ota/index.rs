//! The incremental benefit index: a per-task-shard, lazily invalidated
//! max-structure over the OTA candidate space.
//!
//! The flat benefit scan (Section 5.1) pays O(n) benefit evaluations per
//! worker request even though an answer only perturbs the state of the one
//! task it touched. [`BenefitIndex`] turns the request path into a
//! pop-and-revalidate over a heap keyed by a **worker-independent upper
//! bound** on each task's benefit, so a request evaluates the true
//! (worker-dependent) benefit of only the tasks that can still make the
//! top-`k` — O(k log n) pops in the warm steady state instead of an O(n)
//! rescan.
//!
//! **The bound.** Definition 5 gives `B(t_i) = H(s_i) − H(ŝ_i)` with
//! `H(ŝ_i) ≥ 0`, so `B(t_i) ≤ H(s_i)` for *every* worker — and the bound is
//! tight over the worker space (a perfect worker collapses the posterior).
//! `H(s_i)` is exactly the entropy cache [`TaskState::entropy`] already
//! maintained at answer-ingestion time, so keeping the index current costs
//! one O(log n) heap push per ingested answer.
//!
//! **Lazy invalidation.** Each task carries an epoch; updating a task
//! ([`BenefitIndex::bump`]) increments the epoch and pushes a fresh entry.
//! Stale entries (older epochs) are discarded when popped. Periodic full
//! inference replaces every task state at once, so it triggers a whole-index
//! [`BenefitIndex::rebuild`] instead of n bumps.
//!
//! **Exactness.** [`BenefitIndex::select_top_k`] pops entries in descending
//! bound order and evaluates each task's true benefit until the `k`-th best
//! evaluated benefit strictly exceeds the best remaining bound. Every
//! unevaluated task `t` then satisfies `B(t) ≤ bound(t) ≤ best remaining
//! bound < k-th best`, so the evaluated set provably contains the shard's
//! true top-`k`; running the evaluated candidates through the same
//! [`top_k_linear_pairs`](super::top_k_linear_pairs) selection as the flat
//! scan reproduces its ordering and tie-breaks bit-for-bit. The worst case
//! (a cold pool where every bound ties) degenerates to the flat scan — the
//! index is never *wrong*, only sometimes not faster.

use crate::ti::{ShardedTiState, TaskState};
use docs_types::TaskId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use super::select::top_k_linear_pairs;

/// One heap entry: a task's benefit upper bound at the epoch it was pushed.
#[derive(Debug, Clone, Copy)]
struct Entry {
    bound: f64,
    task: usize,
    epoch: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum: higher bound first, ties toward the
        // lower task index (mirroring the scan's tie-break direction).
        self.bound
            .partial_cmp(&other.bound)
            .expect("entropy bounds are finite")
            .then_with(|| other.task.cmp(&self.task))
    }
}

/// Finite `f64` ordered by value — the key of the running top-`k` tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Finite(f64);

impl Eq for Finite {}

impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Finite {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("benefits are finite")
    }
}

/// Per-task-shard lazily invalidated max-structure over benefit bounds
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct BenefitIndex {
    /// One bound-ordered heap per task shard.
    heaps: Vec<BinaryHeap<Entry>>,
    /// Current epoch per task; heap entries with older epochs are stale.
    epochs: Vec<u32>,
    /// Tasks owned per shard — the compaction threshold baseline.
    shard_sizes: Vec<usize>,
    num_shards: usize,
}

impl BenefitIndex {
    /// Builds the index over the current states, partitioned like
    /// `sharding`.
    pub fn new(states: &[TaskState], sharding: &ShardedTiState) -> Self {
        let mut index = BenefitIndex {
            heaps: Vec::new(),
            epochs: Vec::new(),
            shard_sizes: Vec::new(),
            num_shards: sharding.num_shards(),
        };
        index.rebuild(states, sharding);
        index
    }

    /// Number of task shards the index partitions.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of indexed tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.epochs.len()
    }

    /// Rebuilds the whole index from scratch — the repair path after
    /// periodic full inference (every state changed at once) or a
    /// re-partition.
    pub fn rebuild(&mut self, states: &[TaskState], sharding: &ShardedTiState) {
        debug_assert_eq!(states.len(), sharding.num_tasks());
        self.num_shards = sharding.num_shards();
        self.epochs.clear();
        self.epochs.resize(states.len(), 0);
        self.shard_sizes = (0..self.num_shards)
            .map(|s| sharding.tasks_of(s).len())
            .collect();
        self.heaps = (0..self.num_shards)
            .map(|shard| {
                sharding
                    .tasks_of(shard)
                    .iter()
                    .map(|&task| Entry {
                        bound: states[task].entropy(),
                        task,
                        epoch: 0,
                    })
                    .collect()
            })
            .collect();
    }

    /// Re-keys one task after its state changed (answer ingestion): the old
    /// entry goes stale, a fresh one carries the new `H(s)` bound.
    pub fn bump(&mut self, task: usize, bound: f64) {
        let epoch = self.epochs[task].wrapping_add(1);
        self.epochs[task] = epoch;
        let shard = TaskId::from(task).shard(self.num_shards);
        let heap = &mut self.heaps[shard];
        heap.push(Entry { bound, task, epoch });
        // Stale entries are only dropped when popped; a write-heavy,
        // read-light shard would otherwise grow without bound.
        if heap.len() > 2 * self.shard_sizes[shard] + 8 {
            let epochs = &self.epochs;
            let live: Vec<Entry> = heap.drain().filter(|e| e.epoch == epochs[e.task]).collect();
            *heap = BinaryHeap::from(live);
        }
    }

    /// Exact top-`k` of one shard by pop-and-revalidate.
    ///
    /// `eval` returns the candidate's true benefit for the requesting
    /// worker, or `None` when the task is filtered out (already answered,
    /// answer cap reached, stopping policy). Returns the shard's top-`k`
    /// `(benefit, task)` pairs — byte-identical to running
    /// [`top_k_linear_pairs`](super::top_k_linear_pairs) over a full shard
    /// scan — plus the number of candidates actually evaluated (the
    /// shard's effective candidate-pool size for downstream merge checks).
    pub fn select_top_k(
        &mut self,
        shard: usize,
        k: usize,
        mut eval: impl FnMut(TaskId) -> Option<f64>,
    ) -> (Vec<(f64, TaskId)>, usize) {
        let heap = &mut self.heaps[shard];
        let mut popped: Vec<Entry> = Vec::new();
        let mut found: Vec<(f64, TaskId)> = Vec::new();
        // Min-heap over the best k benefits found so far; its root is the
        // current k-th best — the revalidation cutoff.
        let mut best: BinaryHeap<Reverse<Finite>> = BinaryHeap::with_capacity(k + 1);
        if k > 0 {
            while let Some(&top) = heap.peek() {
                if top.epoch != self.epochs[top.task] {
                    heap.pop(); // stale: superseded by a later bump
                    continue;
                }
                if best.len() == k {
                    let kth = best.peek().expect("k > 0").0 .0;
                    // `>=`, not `>`: a remaining task whose bound ties the
                    // k-th best benefit could still win a tie-break, so it
                    // must be evaluated too.
                    if top.bound < kth {
                        break;
                    }
                }
                let entry = heap.pop().expect("peeked entry exists");
                popped.push(entry);
                if let Some(benefit) = eval(TaskId::from(entry.task)) {
                    found.push((benefit, TaskId::from(entry.task)));
                    best.push(Reverse(Finite(benefit)));
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
        }
        // Popped live entries remain current for the next request.
        for entry in popped {
            heap.push(entry);
        }
        let candidates = found.len();
        (top_k_linear_pairs(found, k), candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ota::top_k_linear_pairs;
    use docs_types::DomainVector;

    fn warm_states(n: usize) -> Vec<TaskState> {
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        (0..n)
            .map(|i| {
                let mut st = TaskState::new(2, 2);
                for _ in 0..(i % 5) {
                    st.apply_answer(&r, &[0.85, 0.7], i % 2);
                }
                st
            })
            .collect()
    }

    /// A deterministic stand-in benefit: a fixed fraction of the entropy
    /// bound, so selection order is testable without the full OTA model.
    fn frac_eval(states: &[TaskState], frac: f64) -> impl Fn(TaskId) -> Option<f64> + '_ {
        move |t: TaskId| Some(states[t.index()].entropy() * frac)
    }

    fn brute_force(
        sharding: &ShardedTiState,
        shard: usize,
        k: usize,
        eval: impl Fn(TaskId) -> Option<f64>,
    ) -> Vec<(f64, TaskId)> {
        let candidates: Vec<(f64, TaskId)> = sharding
            .tasks_of(shard)
            .iter()
            .filter_map(|&i| eval(TaskId::from(i)).map(|b| (b, TaskId::from(i))))
            .collect();
        top_k_linear_pairs(candidates, k)
    }

    #[test]
    fn select_matches_flat_scan_per_shard() {
        let states = warm_states(60);
        for shards in [1usize, 3, 4] {
            let sharding = ShardedTiState::new(states.len(), shards);
            let mut index = BenefitIndex::new(&states, &sharding);
            for k in [0usize, 1, 5, 60] {
                for shard in 0..shards {
                    let (got, _) = index.select_top_k(shard, k, frac_eval(&states, 0.5));
                    let want = brute_force(&sharding, shard, k, frac_eval(&states, 0.5));
                    assert_eq!(got, want, "shards={shards} shard={shard} k={k}");
                }
            }
        }
    }

    #[test]
    fn selection_is_repeatable_entries_survive_pops() {
        let states = warm_states(20);
        let sharding = ShardedTiState::new(20, 2);
        let mut index = BenefitIndex::new(&states, &sharding);
        let first = index.select_top_k(0, 4, frac_eval(&states, 0.9));
        let second = index.select_top_k(0, 4, frac_eval(&states, 0.9));
        assert_eq!(first, second, "a read must not consume the index");
    }

    #[test]
    fn bump_rekeys_a_task() {
        let mut states = warm_states(10);
        let sharding = ShardedTiState::new(10, 1);
        let mut index = BenefitIndex::new(&states, &sharding);
        // Sharpen task 3 (entropy drops), bump, and re-select.
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        for _ in 0..6 {
            states[3].apply_answer(&r, &[0.95, 0.9], 0);
        }
        index.bump(3, states[3].entropy());
        let (got, _) = index.select_top_k(0, 10, frac_eval(&states, 1.0));
        let want = brute_force(&sharding, 0, 10, frac_eval(&states, 1.0));
        assert_eq!(got, want);
    }

    #[test]
    fn filtered_tasks_are_skipped_and_counted_out() {
        let states = warm_states(12);
        let sharding = ShardedTiState::new(12, 1);
        let mut index = BenefitIndex::new(&states, &sharding);
        let eval =
            |t: TaskId| (!t.index().is_multiple_of(3)).then(|| states[t.index()].entropy() * 0.5);
        let (got, candidates) = index.select_top_k(0, 12, eval);
        let want = brute_force(&sharding, 0, 12, eval);
        assert_eq!(got, want);
        assert_eq!(candidates, want.len());
        assert!(got.iter().all(|(_, t)| !t.index().is_multiple_of(3)));
    }

    #[test]
    fn heavy_bumping_compacts_and_stays_exact() {
        let states = warm_states(16);
        let sharding = ShardedTiState::new(16, 2);
        let mut index = BenefitIndex::new(&states, &sharding);
        // Bump far more often than 2 × shard size: compaction must kick in
        // without losing any live entry.
        for round in 0..40 {
            for (task, state) in states.iter().enumerate() {
                index.bump(task, state.entropy() + (round as f64) * 1e-9);
            }
        }
        for shard in 0..2 {
            assert!(
                index.heaps[shard].len() <= 2 * index.shard_sizes[shard] + 9,
                "shard {shard} heap grew to {}",
                index.heaps[shard].len()
            );
            let (got, _) = index.select_top_k(shard, 16, frac_eval(&states, 0.4));
            let want = brute_force(&sharding, shard, 16, frac_eval(&states, 0.4));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn rebuild_follows_a_new_partition() {
        let states = warm_states(30);
        let mut index = BenefitIndex::new(&states, &ShardedTiState::new(30, 1));
        let resharded = ShardedTiState::new(30, 4);
        index.rebuild(&states, &resharded);
        assert_eq!(index.num_shards(), 4);
        for shard in 0..4 {
            let (got, _) = index.select_top_k(shard, 30, frac_eval(&states, 0.7));
            let want = brute_force(&resharded, shard, 30, frac_eval(&states, 0.7));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn cold_pool_with_tied_bounds_still_selects_exactly() {
        // Every task fresh: all bounds tie at ln 2, the degenerate case.
        let states: Vec<TaskState> = (0..25).map(|_| TaskState::new(2, 2)).collect();
        let sharding = ShardedTiState::new(25, 2);
        let mut index = BenefitIndex::new(&states, &sharding);
        // Benefits vary by task id even though bounds tie.
        let eval = |t: TaskId| Some(((t.index() * 7) % 13) as f64 / 26.0);
        for shard in 0..2 {
            let (got, _) = index.select_top_k(shard, 5, eval);
            let want = brute_force(&sharding, shard, 5, eval);
            assert_eq!(got, want);
        }
    }
}

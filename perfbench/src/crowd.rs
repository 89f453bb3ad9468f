//! Seeded simulated crowds. A worker's answer to a task is a pure function
//! of (seed, worker, task), so the same seed gives the same answers however
//! the service interleaves the operations.

use docs_crowd::{AnswerModel, SimulatedWorker, WorkerPopulation};
use docs_types::{Answer, ChoiceIndex, Task, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub struct Crowd {
    workers: Vec<SimulatedWorker>,
    seed: u64,
}

/// SplitMix64 finaliser: decorrelates nearby seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Crowd {
    pub fn new(population: WorkerPopulation, seed: u64) -> Self {
        Crowd {
            workers: population.workers().to_vec(),
            seed,
        }
    }

    pub fn ids(&self) -> Vec<WorkerId> {
        self.workers.iter().map(|w| w.id).collect()
    }

    fn answer(&self, w: WorkerId, task: &Task) -> ChoiceIndex {
        let key = mix(self.seed ^ mix(u64::from(w.0) << 32 | u64::from(task.id.0)));
        let mut rng = SmallRng::seed_from_u64(key);
        self.workers[w.0 as usize].answer(task, AnswerModel::DomainUniform, &mut rng)
    }

    pub fn golden(
        &self,
        w: WorkerId,
        ids: &[TaskId],
        tasks: &[Task],
    ) -> Vec<(TaskId, ChoiceIndex)> {
        ids.iter()
            .map(|&t| (t, self.answer(w, &tasks[t.index()])))
            .collect()
    }

    pub fn hit(&self, w: WorkerId, hit: &[TaskId], tasks: &[Task]) -> Vec<Answer> {
        hit.iter()
            .map(|&t| Answer::new(w, t, self.answer(w, &tasks[t.index()])))
            .collect()
    }
}

//! Correctness checks. Each returns `Err` with a description when the
//! program's output is wrong; a failed check makes the run exit non-zero.

use docs_types::{Answer, ChoiceIndex, Task};

/// The replayed truths must equal the served truths byte for byte.
pub fn replay_matches(served: &[ChoiceIndex], replayed: &[ChoiceIndex]) -> Result<(), String> {
    if served.len() != replayed.len() {
        return Err(format!(
            "replay inferred {} truths, the service served {}",
            replayed.len(),
            served.len()
        ));
    }
    match served.iter().zip(replayed).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "task {i}: served truth {} but replay inferred {}",
            served[i], replayed[i]
        )),
        None => Ok(()),
    }
}

/// Majority vote per task over the given answers (ties go to the lowest
/// choice; unanswered tasks get choice 0).
pub fn majority_vote(tasks: &[Task], answers: &[Answer]) -> Vec<ChoiceIndex> {
    let mut votes: Vec<Vec<usize>> = tasks.iter().map(|t| vec![0; t.num_choices()]).collect();
    for a in answers {
        votes[a.task.index()][a.choice] += 1;
    }
    votes
        .iter()
        .map(|v| {
            let best = *v.iter().max().unwrap_or(&0);
            v.iter().position(|&c| c == best).unwrap_or(0)
        })
        .collect()
}

/// Share of labelled tasks whose truth equals the ground truth.
pub fn accuracy(truths: &[ChoiceIndex], tasks: &[Task]) -> f64 {
    let (mut right, mut labelled) = (0usize, 0usize);
    for (t, task) in truths.iter().zip(tasks) {
        if let Some(g) = task.ground_truth {
            labelled += 1;
            right += usize::from(*t == g);
        }
    }
    right as f64 / labelled.max(1) as f64
}

/// Accuracy over the labelled tasks that received at least one of the
/// given answers, and the number of those tasks.
pub fn answered_accuracy(
    truths: &[ChoiceIndex],
    tasks: &[Task],
    answers: &[Answer],
) -> (f64, usize) {
    let mut answered = vec![false; tasks.len()];
    for a in answers {
        answered[a.task.index()] = true;
    }
    let (mut right, mut labelled) = (0usize, 0usize);
    for ((t, task), seen) in truths.iter().zip(tasks).zip(&answered) {
        if let (true, Some(g)) = (*seen, task.ground_truth) {
            labelled += 1;
            right += usize::from(*t == g);
        }
    }
    (right as f64 / labelled.max(1) as f64, labelled)
}

/// DOCS must be at least as accurate as majority vote over the same
/// accepted answers.
pub fn docs_beats_mv(docs: f64, mv: f64) -> Result<(), String> {
    if docs + 1e-12 >= mv {
        Ok(())
    } else {
        Err(format!(
            "DOCS accuracy {docs:.4} is below majority vote {mv:.4}"
        ))
    }
}

/// Every acknowledged answer must be in the recovered state.
pub fn acked_recovered(acked: &[Answer], present: impl Fn(&Answer) -> bool) -> Result<(), String> {
    let lost: Vec<&Answer> = acked.iter().filter(|a| !present(a)).collect();
    match lost.first() {
        None => Ok(()),
        Some(a) => Err(format!(
            "{} acknowledged answers lost across crash + recover (first: worker {} task {})",
            lost.len(),
            a.worker,
            a.task
        )),
    }
}

/// At zero lag the follower's truths and state equal the primary's.
pub fn follower_matches(
    primary_truths: &[ChoiceIndex],
    follower_truths: &[ChoiceIndex],
    primary_state: &[u8],
    follower_state: &[u8],
) -> Result<(), String> {
    replay_matches(primary_truths, follower_truths)
        .map_err(|e| format!("follower truths differ from the primary's: {e}"))?;
    if primary_state != follower_state {
        return Err("follower state bytes differ from the primary's at zero lag".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{TaskBuilder, TaskId, WorkerId};

    fn tasks() -> Vec<Task> {
        (0..4)
            .map(|i| {
                TaskBuilder::new(i, format!("t{i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn replay_check_trips_on_a_flipped_truth() {
        let served = vec![0, 1, 0, 1];
        assert!(replay_matches(&served, &served).is_ok());
        let mut flipped = served.clone();
        flipped[2] = 1;
        assert!(replay_matches(&served, &flipped).is_err());
        assert!(replay_matches(&served, &served[..3]).is_err());
    }

    #[test]
    fn durability_check_trips_on_a_dropped_acked_answer() {
        let acked: Vec<Answer> = (0..4)
            .map(|i| Answer::new(WorkerId(1), TaskId(i), 0))
            .collect();
        let recovered = acked.clone();
        let has = |set: &[Answer], a: &Answer| set.contains(a);
        assert!(acked_recovered(&acked, |a| has(&recovered, a)).is_ok());
        let dropped = &recovered[..3];
        assert!(acked_recovered(&acked, |a| has(dropped, a)).is_err());
    }

    #[test]
    fn follower_check_trips_on_a_mismatch() {
        let t = vec![0, 1, 1];
        assert!(follower_matches(&t, &t, b"abc", b"abc").is_ok());
        assert!(follower_matches(&t, &[0, 1, 0], b"abc", b"abc").is_err());
        assert!(follower_matches(&t, &t, b"abc", b"abd").is_err());
    }

    #[test]
    fn majority_vote_and_accuracy() {
        let ts = tasks();
        let answers = vec![
            Answer::new(WorkerId(0), TaskId(1), 1),
            Answer::new(WorkerId(1), TaskId(1), 1),
            Answer::new(WorkerId(2), TaskId(1), 0),
            Answer::new(WorkerId(0), TaskId(2), 1),
        ];
        let mv = majority_vote(&ts, &answers);
        assert_eq!(mv, vec![0, 1, 1, 0]);
        assert_eq!(accuracy(&mv, &ts), 0.5);
        // Tasks 0 and 3 have no answer: only tasks 1 and 2 are scored.
        let truths = vec![0, 1, 0, 0];
        assert_eq!(accuracy(&truths, &ts), 0.75);
        assert_eq!(answered_accuracy(&truths, &ts, &answers), (1.0, 2));
        assert!(docs_beats_mv(0.5, 0.5).is_ok());
        assert!(docs_beats_mv(0.49, 0.5).is_err());
    }
}

//! Metric declarations: the one list the output, `BENCHMARK.json` and the
//! tests agree on.

/// Whether a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports from its untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("answers_per_s", "answers/s", Higher),
    m("accuracy", "fraction", Higher),
    m("rss_peak_mb", "MiB", Lower),
];

/// Per-layer metrics every workload reports from its traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("dve.link_us_per_task", "us", Lower),
    m("ota.assign_us_p50", "us", Lower),
    m("ota.assign_us_p99", "us", Lower),
    m("ota.calls", "count", Lower),
    m("ti.incr_us_per_answer", "us", Lower),
    m("ti.full_ms_p50", "ms", Lower),
    m("ti.full_ms_max", "ms", Lower),
    m("ti.full_runs", "count", Lower),
    m("ti.finish_ms", "ms", Lower),
    m("system.validate_us_per_batch", "us", Lower),
    m("system.replay_ms", "ms", Lower),
    m("codec.encode_ns_per_event", "ns", Lower),
    m("codec.decode_ns_per_event", "ns", Lower),
    m("codec.bytes_per_event", "B", Lower),
    m("storage.append_us_per_event", "us", Lower),
    m("storage.fsync_us_p50", "us", Lower),
    m("storage.fsync_us_p99", "us", Lower),
    m("storage.events_per_flush", "events", Higher),
    m("storage.flushes_per_answer", "count", Lower),
    m("storage.recover_scan_ms", "ms", Lower),
    m("replication.lag_ms_p50", "ms", Lower),
    m("replication.lag_ms_p99", "ms", Lower),
    m("replication.wire_bytes_per_event", "B", Lower),
    m("service.queue_wait_us_p50", "us", Lower),
    m("service.queue_wait_us_p99", "us", Lower),
    m("service.apply_us_p50", "us", Lower),
    m("service.flush_wait_us_p50", "us", Lower),
    m("service.flush_wait_us_p99", "us", Lower),
    m("service.ship_us_p50", "us", Lower),
    m("service.wake_us_p50", "us", Lower),
    m("service.shard_busy_frac", "fraction", Lower),
    m("service.queue_depth_max", "count", Lower),
    m("service.trace_coverage", "fraction", Higher),
    m("share.ti_of_shard", "fraction", Lower),
    m("share.ota_of_shard", "fraction", Lower),
    m("share.durable_of_submit", "fraction", Lower),
    m("harness.span_coverage", "fraction", Higher),
    m("harness.send_lag_p99_ms", "ms", Lower),
    m("harness.trace_overhead_frac", "fraction", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    find(name).map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A name starts with a letter or digit and uses only `[A-Za-z0-9_.-]`,
    /// at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_x"));
    }

    /// `BENCHMARK.json` declares exactly these metrics with these units.
    #[test]
    fn benchmark_json_matches_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let k = format!("\"{key}\":");
                        let at = entry.find(&k).expect("field present") + k.len();
                        let rest = entry[at..].trim_start().trim_start_matches('"');
                        rest[..rest.find('"').expect("string field")].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let want = |list: &[Metric]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.word().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), want(END_TO_END));
        assert_eq!(declared("per_layer"), want(PER_LAYER));
    }
}

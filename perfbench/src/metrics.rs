//! The metric names, units and directions this benchmark reports — the same
//! lists `BENCHMARK.json` declares (a test keeps the two in step).

/// `(name, unit, better, bound)`: what a client of the system observes. Every
/// workload reports every one of them (`--trace 0`).
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_p50_ms", "ms", "lower", 0.25),
    ("batch_p50_ms", "ms", "lower", 0.25),
    ("sample_p50_ms", "ms", "lower", 0.25),
    ("warm_p50_us", "us", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("refresh_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
];

/// `(name, unit, better)`: single layers, from the traced run (`--trace 1`).
/// The prefix is the crate name without `qjoin-`.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("workload.generate_s", "s", "lower"),
    ("workload.db_tuples", "count", "lower"),
    ("workload.answers", "count", "lower"),
    ("data.encode_ms", "ms", "lower"),
    ("data.encode_ns_per_tuple", "ns", "lower"),
    ("data.dictionary_len", "count", "lower"),
    ("query.instance_ms", "ms", "lower"),
    ("exec.context_build_ms", "ms", "lower"),
    ("exec.count_ms", "ms", "lower"),
    ("exec.enumerate_ms", "ms", "lower"),
    ("exec.enumerate_ns_per_answer", "ns", "lower"),
    ("exec.direct_access_build_ms", "ms", "lower"),
    ("exec.sample_us", "us", "lower"),
    ("core.solve_ms", "ms", "lower"),
    ("core.prepare_ms", "ms", "lower"),
    ("core.pivot_scan_ms", "ms", "lower"),
    ("core.trim_round_ms", "ms", "lower"),
    ("core.materialize_ms", "ms", "lower"),
    ("core.rounds", "count", "lower"),
    ("core.candidates_scanned", "count", "lower"),
    ("core.materialized", "count", "lower"),
    ("core.round_shrink", "ratio", "lower"),
    ("core.batch_cost_ratio", "ratio", "lower"),
    ("core.unattributed_share", "ratio", "lower"),
    ("par.speedup", "ratio", "higher"),
    ("par.tasks", "count", "lower"),
    ("par.steals", "count", "lower"),
    ("par.parallel_share", "ratio", "higher"),
    ("engine.create_database_ms", "ms", "lower"),
    ("engine.register_ms", "ms", "lower"),
    ("engine.replace_ms", "ms", "lower"),
    ("engine.first_solve_ms", "ms", "lower"),
    ("engine.read_stall_p50_ms", "ms", "lower"),
    ("engine.cold_ms", "ms", "lower"),
    ("engine.overhead_ms", "ms", "lower"),
    ("engine.warm_us", "us", "lower"),
    ("engine.cache_hit_share", "ratio", "higher"),
    ("engine.encoded_share", "ratio", "higher"),
    ("engine.coalesced_batches", "count", "lower"),
    ("server.wire_overhead_us", "us", "lower"),
    ("server.queue_wait_mean_us", "us", "lower"),
    ("server.execute_mean_us", "us", "lower"),
    ("server.write_mean_us", "us", "lower"),
    ("server.warm_tail_us", "us", "lower"),
    ("server.reader_max_ms", "ms", "lower"),
    ("telemetry.trace_overhead_pct", "%", "lower"),
    ("bench.tracer_overhead_pct", "%", "lower"),
    ("bench.calibration_ms", "ms", "lower"),
];

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, unit, _, _)| (n, unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        for spec in crate::workloads::all() {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(json.contains(&entry), "missing {entry}");
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::all().len()
        );
    }
}

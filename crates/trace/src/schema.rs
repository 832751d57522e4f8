//! The trace schema: every record type the simulator emits, with its exact
//! ordered field list.
//!
//! The emitter (`dmm-core`) writes object fields in a fixed order and the
//! serializer preserves it, so the schema here is strong enough to pin the
//! byte layout of a trace line, not just its field *set*. The golden schema
//! test in the repository's test suite asserts that every record the
//! simulator emits matches these lists exactly — any drift between emitter
//! and analyzer fails CI rather than silently misparsing.

/// Every record type, in rough order of appearance in a typical trace.
pub const RECORD_TYPES: [&str; 10] = [
    "run_config",
    "interval",
    "home_load",
    "net_load",
    "optimize",
    "grant",
    "goal_change",
    "fault",
    "failover",
    "span",
];

/// Ordered fields of the nested `stages` object of a `span` record: one
/// `{stage}_ns` integer per lifecycle stage, in stage-index order. The
/// values partition the operation's response time exactly (integer
/// nanoseconds, no rounding).
pub const SPAN_STAGE_FIELDS: [&str; 8] = [
    "local_hit_ns",
    "pool_queue_ns",
    "net_request_ns",
    "net_transfer_ns",
    "remote_hit_ns",
    "disk_queue_ns",
    "disk_service_ns",
    "cpu_ns",
];

/// Ordered top-level fields of `kind` records, or `None` for an unknown
/// record type.
pub fn expected_fields(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        // The replay closure: the first record of every trace, carrying
        // every builder parameter that shapes the byte stream (see
        // `dmm_core::replay`). Execution-substrate toggles (span mode,
        // exec mode) are trace-invariant and excluded.
        "run_config" => &[
            "type",
            "seed",
            "nodes",
            "db_pages",
            "buffer_pages_per_node",
            "theta",
            "goal_ms",
            "goal_rate_per_ms",
            "goal_quantile",
            "interval_ns",
            "warmup_intervals",
            "controller",
            "goal_range",
            "satisfaction",
            "release_floor_mb",
            "repricing",
            "placement",
            "fabric",
            "net_bits_per_sec",
            "probe",
            "tiers",
            "tier_policy",
            "fault_plan",
            "replayable",
        ],
        "interval" => &[
            "type",
            "interval",
            "t_ms",
            "class",
            "observed_ms",
            "goal_ms",
            "nogoal_ms",
            "tolerance_ms",
            "satisfied",
            "settling",
            "store_cleared",
            "phase",
            "dedicated_mb",
            "level_share",
            "class_hit_rate",
            "nogoal_hit_rate",
            "residual_ms",
        ],
        "home_load" => &[
            "type",
            "interval",
            "t_ms",
            "home_pages",
            "home_reads",
            "remote_fanin",
        ],
        // Only emitted under a switched fabric: per-node TX/RX link busy
        // fractions (arrays, one entry per node) plus the switch core's,
        // `null` when the core is ideal. Shared-medium traces never carry
        // this record.
        "net_load" => &[
            "type",
            "interval",
            "t_ms",
            "tx_busy",
            "rx_busy",
            "bisection_busy",
        ],
        "optimize" => &[
            "type",
            "interval",
            "class",
            "path",
            "points",
            "plane_w",
            "plane_c",
            "goal_attainable",
            "predicted_class_ms",
            "fit_residuals_ms",
            "fit_rms_ms",
            "fallback",
            "current_mb",
            "requested_mb",
            "delta_mb",
        ],
        "grant" => &[
            "type",
            "t_ms",
            "class",
            "node",
            "requested_pages",
            "granted_pages",
            "avail_pages",
        ],
        "goal_change" => &[
            "type",
            "interval",
            "t_ms",
            "class",
            "old_goal_ms",
            "new_goal_ms",
        ],
        "fault" => &[
            "type",
            "t_ms",
            "kind",
            "node",
            "live_nodes",
            "last_copy_losses",
            "ops_aborted",
        ],
        "failover" => &["type", "t_ms", "class", "from", "to"],
        "span" => &[
            "type",
            "t_ms",
            "op",
            "class",
            "origin",
            "response_ms",
            "stages",
        ],
        _ => return None,
    })
}

/// Extra *trailing* fields appended to records concerning a quantile-goal
/// class (a class whose goal judges e.g. the p95, not the mean). Empty for
/// record types the quantile path does not extend. Mean-goal classes never
/// emit these fields, so a mean-goal trace is byte-identical to one from
/// the quantile-free emitter.
pub fn quantile_extension_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "interval" => &["observed_p_ms", "goal_metric"],
        "optimize" | "goal_change" => &["goal_metric"],
        _ => &[],
    }
}

/// Extra *trailing* fields appended to records emitted by runs with an
/// extended storage ladder (more than one local memory tier). They trail
/// even the quantile extension, so default-ladder traces — the 3-level
/// local/remote/disk configuration — stay byte-identical to the
/// single-tier emitter.
pub fn tier_extension_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "interval" => &["tier_occupancy"],
        _ => &[],
    }
}

/// Ordered top-level fields of `kind` records for a class with the given
/// goal metric: [`expected_fields`] plus, when `quantile` is set, the
/// [`quantile_extension_fields`] appended at the end.
pub fn expected_fields_for(kind: &str, quantile: bool) -> Option<Vec<&'static str>> {
    expected_fields_ext(kind, quantile, false)
}

/// Ordered top-level fields of `kind` records under both optional
/// extensions: quantile-goal fields first, then — when `tiered` is set —
/// the [`tier_extension_fields`] of an extended storage ladder.
pub fn expected_fields_ext(kind: &str, quantile: bool, tiered: bool) -> Option<Vec<&'static str>> {
    let mut fields: Vec<&'static str> = expected_fields(kind)?.to_vec();
    if quantile {
        fields.extend_from_slice(quantile_extension_fields(kind));
    }
    if tiered {
        fields.extend_from_slice(tier_extension_fields(kind));
    }
    Some(fields)
}

/// Validates a parsed record against the published schema: the type must
/// be known and the base field layout must be an exact *prefix* of the
/// record's fields (the quantile and tier extensions are purely trailing,
/// so extras after the base layout are legal).
pub fn validate_record(record: &crate::reader::Record) -> Result<(), String> {
    let base = expected_fields(&record.kind)
        .ok_or_else(|| format!("unknown record type {:?}", record.kind))?;
    let names = record.field_names();
    if names.len() < base.len() || names[..base.len()] != *base {
        return Err(format!(
            "{} record fields {names:?} do not start with the published layout {base:?}",
            record.kind
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_starts_with_type_and_has_unique_fields() {
        for kind in RECORD_TYPES {
            let fields = expected_fields(kind).expect("known type");
            assert_eq!(fields[0], "type", "{kind}");
            let mut seen = std::collections::HashSet::new();
            for f in fields {
                assert!(seen.insert(f), "{kind}: duplicate field {f}");
            }
        }
        assert!(expected_fields("nonsense").is_none());
    }

    #[test]
    fn span_stage_fields_are_ns_suffixed() {
        for f in SPAN_STAGE_FIELDS {
            assert!(f.ends_with("_ns"), "{f}");
        }
    }

    #[test]
    fn quantile_extensions_append_without_collisions() {
        for kind in RECORD_TYPES {
            let base = expected_fields(kind).expect("known type");
            let ext = quantile_extension_fields(kind);
            for f in ext {
                assert!(!base.contains(f), "{kind}: {f} collides with base");
            }
            let combined = expected_fields_for(kind, true).expect("known type");
            assert_eq!(&combined[..base.len()], base, "{kind}: base is a prefix");
            assert_eq!(&combined[base.len()..], ext, "{kind}: extension trails");
            assert_eq!(
                expected_fields_for(kind, false).expect("known type"),
                base.to_vec(),
                "{kind}: mean layout unchanged"
            );
        }
        assert!(expected_fields_for("nonsense", true).is_none());
    }

    #[test]
    fn tier_extensions_trail_the_quantile_extension() {
        for kind in RECORD_TYPES {
            let base = expected_fields_for(kind, true).expect("known type");
            let ext = tier_extension_fields(kind);
            for f in ext {
                assert!(!base.contains(f), "{kind}: {f} collides with base");
            }
            let combined = expected_fields_ext(kind, true, true).expect("known type");
            assert_eq!(&combined[..base.len()], base, "{kind}: base is a prefix");
            assert_eq!(&combined[base.len()..], ext, "{kind}: tier fields trail");
            assert_eq!(
                expected_fields_ext(kind, true, false).expect("known type"),
                base,
                "{kind}: untiered layout unchanged"
            );
        }
        assert_eq!(tier_extension_fields("interval"), ["tier_occupancy"]);
        assert!(tier_extension_fields("span").is_empty());
    }

    #[test]
    fn validate_record_accepts_base_and_extended_layouts() {
        let ok = crate::reader::read_str(
            "{\"type\":\"failover\",\"t_ms\":1.0,\"class\":1,\"from\":0,\"to\":2}\n",
        )
        .expect("parses");
        validate_record(&ok.records[0]).expect("base layout");

        let extended = crate::reader::read_str(
            "{\"type\":\"goal_change\",\"interval\":4,\"t_ms\":1.0,\"class\":1,\
             \"old_goal_ms\":10.0,\"new_goal_ms\":12.0,\"goal_metric\":\"p95\"}\n",
        )
        .expect("parses");
        validate_record(&extended.records[0]).expect("trailing extension");

        let unknown = crate::reader::read_str("{\"type\":\"mystery\"}\n").expect("parses");
        assert!(validate_record(&unknown.records[0])
            .expect_err("unknown type")
            .contains("unknown record type"));

        let wrong = crate::reader::read_str(
            "{\"type\":\"failover\",\"class\":1,\"t_ms\":1.0,\"from\":0,\"to\":2}\n",
        )
        .expect("parses");
        assert!(validate_record(&wrong.records[0])
            .expect_err("reordered fields")
            .contains("published layout"));
    }
}

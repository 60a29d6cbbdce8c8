//! The telemetry → advisor bridge: converts a measured
//! [`WorkloadSnapshot`] (what a live shard's profiler observed) into the
//! [`WorkloadTrace`] the design advisor consumes, so
//! [`select_design`](crate::select_design) runs on real traffic instead of
//! hand-written traces.
//!
//! The conversion is lossless for everything the advisor looks at: per-level
//! insert/read/scan/update counts, the projection of every operation kind
//! (telemetry records 0-based column-id sets), scan selectivities, and the
//! measured tree parameters. Snapshots whose measurements fall outside the
//! cost model's domain (a size ratio below 2, zero columns) are rejected
//! rather than silently clamped — a scraper shipping garbage should hear
//! about it.

use laser_core::lsm_storage::{Error, Result};
use laser_core::Projection;
use laser_cost_model::{LevelWorkload, TreeParameters};
use telemetry::{LevelMix, MeasuredTreeParams, WorkloadSnapshot};

use crate::WorkloadTrace;

/// Converts measured tree parameters into the cost model's
/// [`TreeParameters`], validating the model's domain.
pub fn tree_params_from_measured(measured: &MeasuredTreeParams) -> Result<TreeParameters> {
    if measured.size_ratio < 2 {
        return Err(Error::invalid(format!(
            "measured size ratio {} is below the model's minimum of 2",
            measured.size_ratio
        )));
    }
    if measured.num_columns == 0 {
        return Err(Error::invalid("measured snapshot reports zero columns"));
    }
    if measured.entries_per_block == 0 {
        return Err(Error::invalid(
            "measured snapshot reports zero entries per block",
        ));
    }
    Ok(TreeParameters {
        // An empty tree still needs a non-degenerate model domain.
        num_entries: measured.num_entries.max(1),
        size_ratio: measured.size_ratio,
        entries_per_block: measured.entries_per_block as f64,
        level0_blocks: measured.level0_blocks.max(1),
        num_columns: measured.num_columns as usize,
    })
}

/// Converts one profiled per-level mix into the cost model's
/// [`LevelWorkload`].
fn level_workload_from_mix(mix: &LevelMix) -> LevelWorkload {
    let projection = |columns: &[u32]| Projection::of(columns.iter().map(|&c| c as usize));
    LevelWorkload {
        inserts: mix.inserts,
        point_reads: mix
            .point_reads
            .iter()
            .map(|(columns, count)| (projection(columns), *count))
            .collect(),
        scans: mix
            .scans
            .iter()
            .map(|(columns, entries, count)| {
                // The profiled tuple carries total entries over `count`
                // scans; the model wants the per-scan selectivity `s_i`.
                let selectivity = *entries as f64 / (*count).max(1) as f64;
                (projection(columns), selectivity, *count)
            })
            .collect(),
        updates: mix
            .updates
            .iter()
            .map(|(columns, count)| (projection(columns), *count))
            .collect(),
    }
}

/// Converts a serialized workload snapshot into an advisor-ready
/// [`WorkloadTrace`]. Fails if the measured parameters fall outside the
/// cost model's domain; an empty per-level mix yields an empty trace (the
/// advisor then keeps every level row-oriented).
pub fn trace_from_snapshot(snapshot: &WorkloadSnapshot) -> Result<WorkloadTrace> {
    let params = tree_params_from_measured(&snapshot.params)?;
    let per_level = snapshot
        .levels
        .iter()
        .map(level_workload_from_mix)
        .collect();
    Ok(WorkloadTrace { params, per_level })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{select_design, AdvisorOptions};
    use laser_core::Schema;

    fn measured() -> MeasuredTreeParams {
        MeasuredTreeParams {
            num_entries: 100_000,
            size_ratio: 4,
            entries_per_block: 32,
            level0_blocks: 64,
            num_columns: 6,
        }
    }

    fn snapshot_with_levels(levels: Vec<LevelMix>) -> WorkloadSnapshot {
        WorkloadSnapshot {
            shard: "0".into(),
            engine: "laser".into(),
            reads: 10,
            writes: 20,
            scans: 5,
            params: measured(),
            levels,
            projections: vec![(vec![0, 1], 10)],
        }
    }

    #[test]
    fn snapshot_round_trips_losslessly_into_a_trace() {
        let mix = LevelMix {
            inserts: 500,
            point_reads: vec![(vec![0, 1], 40), (vec![2], 2)],
            point_read_groups: 44,
            scans: vec![(vec![5], 9000, 3)],
            updates: vec![(vec![1], 7)],
        };
        let trace =
            trace_from_snapshot(&snapshot_with_levels(vec![LevelMix::default(), mix])).unwrap();
        assert_eq!(trace.params.size_ratio, 4);
        assert_eq!(trace.params.num_columns, 6);
        assert_eq!(trace.num_levels(), 2);
        let level = &trace.per_level[1];
        assert_eq!(level.inserts, 500);
        assert_eq!(level.point_reads[0], (Projection::of([0, 1]), 40));
        assert_eq!(level.updates, vec![(Projection::of([1]), 7)]);
        // 9000 entries over 3 scans ⇒ per-scan selectivity 3000.
        assert_eq!(level.scans[0].0, Projection::of([5]));
        assert!((level.scans[0].1 - 3000.0).abs() < 1e-9);
        assert_eq!(level.scans[0].2, 3);
    }

    #[test]
    fn converted_traces_are_accepted_by_the_advisor() {
        let mut levels = vec![LevelMix::default(); 3];
        levels[2].scans = vec![(vec![5], 150_000, 3)];
        let trace = trace_from_snapshot(&snapshot_with_levels(levels)).unwrap();
        let schema = Schema::with_columns(6);
        let design = select_design(
            &schema,
            &trace,
            &AdvisorOptions {
                num_levels: 3,
                design_name: "measured".into(),
            },
        )
        .unwrap();
        design.validate().unwrap();
        // The scan-only column must be isolated, as with a native trace.
        let level = design.level(2);
        let group = level.group_of(5).unwrap();
        assert_eq!(level.groups()[group].size(), 1, "layout: {level}");
    }

    #[test]
    fn out_of_domain_measurements_are_rejected() {
        let mut bad_ratio = snapshot_with_levels(Vec::new());
        bad_ratio.params.size_ratio = 1;
        assert!(trace_from_snapshot(&bad_ratio).is_err());
        let mut no_columns = snapshot_with_levels(Vec::new());
        no_columns.params.num_columns = 0;
        assert!(trace_from_snapshot(&no_columns).is_err());
        let mut no_blocks = snapshot_with_levels(Vec::new());
        no_blocks.params.entries_per_block = 0;
        assert!(trace_from_snapshot(&no_blocks).is_err());
    }

    #[test]
    fn empty_tree_measurements_stay_in_domain() {
        let mut empty = snapshot_with_levels(Vec::new());
        empty.params.num_entries = 0;
        empty.params.level0_blocks = 0;
        let trace = trace_from_snapshot(&empty).unwrap();
        assert_eq!(trace.params.num_entries, 1);
        assert_eq!(trace.params.level0_blocks, 1);
        assert_eq!(trace.num_levels(), 0);
    }
}

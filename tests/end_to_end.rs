//! Cross-crate integration tests: the full stack (workload generator →
//! engine → advisor → cost model) exercised end-to-end.

use laser::{
    select_design, AdvisorOptions, HtapWorkloadSpec, LaserDb, LaserOptions, LayoutSpec, Operation,
    Projection, Schema, TreeParameters, Value,
};
use laser_core::lsm_storage::{FaultConfig, FaultInjectingStorage, MemStorage, StorageRef};
use laser_workload::build_workload_trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_options(design: LayoutSpec) -> LaserOptions {
    let mut options = LaserOptions::small_for_tests(design);
    options.memtable_size_bytes = 8 << 10;
    options.level0_size_bytes = 12 << 10;
    options.num_levels = 6;
    options
}

fn run_stream(db: &LaserDb, ops: &[Operation]) {
    for op in ops {
        match op {
            Operation::Insert { key, base } => db.insert_int_row(*key, *base).unwrap(),
            Operation::PointRead { key, projection } => {
                db.read(*key, projection).unwrap();
            }
            Operation::Update { key, values } => db.update(*key, values.clone()).unwrap(),
            Operation::Scan { lo, hi, projection } => {
                db.scan(*lo, *hi, projection).unwrap();
            }
            Operation::Delete { key } => db.delete(*key).unwrap(),
        }
    }
}

/// Every design must return exactly the same query answers: the layout is a
/// physical-design choice, not a semantic one.
#[test]
fn all_designs_agree_on_query_results() {
    let schema = Schema::with_columns(12);
    let designs = vec![
        LayoutSpec::row_store(&schema, 6),
        LayoutSpec::column_store(&schema, 6),
        LayoutSpec::equi_width(&schema, 6, 3),
        LayoutSpec::htap_simple(&schema, 6, 3),
    ];
    let mut reference: Option<Vec<(u64, Vec<Option<i64>>)>> = None;
    for design in designs {
        let name = design.name().to_string();
        let db = LaserDb::open_in_memory(small_options(design)).unwrap();
        for key in 0..800u64 {
            db.insert_int_row(key, key as i64).unwrap();
        }
        // Column updates and deletes sprinkled in.
        for key in (0..800u64).step_by(13) {
            db.update(key, vec![(5, Value::Int(-(key as i64)))])
                .unwrap();
        }
        for key in (0..800u64).step_by(97) {
            db.delete(key).unwrap();
        }
        db.compact_all().unwrap();
        let proj = Projection::of([0, 5, 11]);
        let rows = db.scan(0, 799, &proj).unwrap();
        let normalised: Vec<(u64, Vec<Option<i64>>)> = rows
            .iter()
            .map(|(k, frag)| {
                (
                    *k,
                    vec![
                        frag.get(0).and_then(|v| v.as_int()),
                        frag.get(5).and_then(|v| v.as_int()),
                        frag.get(11).and_then(|v| v.as_int()),
                    ],
                )
            })
            .collect();
        match &reference {
            None => reference = Some(normalised),
            Some(expected) => assert_eq!(&normalised, expected, "design {name} diverges"),
        }
    }
    // Sanity-check the reference itself.
    let reference = reference.unwrap();
    assert_eq!(reference.len(), 800 - 800usize.div_ceil(97));
    let updated = reference.iter().find(|(k, _)| *k == 13).unwrap();
    assert_eq!(updated.1[1], Some(-13));
}

/// The full HTAP workload runs against the paper's D-opt design and the
/// engine stays consistent afterwards.
#[test]
fn htap_workload_end_to_end_on_dopt() {
    let spec = HtapWorkloadSpec {
        num_columns: 30,
        load_keys: 1_200,
        steady_inserts: 300,
        q2a_count: 80,
        q2b_count: 80,
        update_ratio: 0.02,
        q4_count: 2,
        q5_count: 2,
        q4_selectivity: 0.05,
        q5_selectivity: 0.5,
        shift: Default::default(),
    };
    let schema = Schema::narrow();
    let db =
        LaserDb::open_in_memory(small_options(LayoutSpec::d_opt_paper(&schema).unwrap())).unwrap();
    run_stream(&db, &spec.generate_load().operations);
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    run_stream(&db, &spec.generate_steady(&mut rng).operations);
    // Every loaded key is still readable with full projection.
    for key in (0..spec.total_keys()).step_by(111) {
        let row = db.read(key, &Projection::all(&schema)).unwrap();
        assert!(row.is_some(), "key {key} lost");
        assert!(row.unwrap().len() == 30);
    }
    let stats = db.stats();
    assert_eq!(stats.inserts, spec.load_keys + spec.steady_inserts);
    assert!(stats.compactions > 0);
    assert!(stats.levels.iter().any(|l| l.point_reads > 0));
}

/// CG-local compaction moves the column groups of a level down one at a time,
/// so the groups of one row can sit on different levels. A scan whose
/// projection spans several groups must then keep descending until every
/// projected column is found, as a point read does: a level's stitched
/// version says nothing about the groups that have already left that level.
#[test]
fn scan_spanning_column_groups_on_different_levels_matches_reads() {
    let schema = Schema::narrow();
    let mut options = small_options(LayoutSpec::d_opt_paper(&schema).unwrap());
    options.num_levels = 8;
    let db = LaserDb::open_in_memory(options).unwrap();
    // Preload until some column-group level holds one group's run while
    // another group's run there is empty (its rows already moved deeper).
    let groups_on_different_levels = |db: &LaserDb| {
        db.level_summaries().iter().skip(2).any(|level| {
            let entries = level.column_groups.iter().map(|&(_, entries, _)| entries);
            entries.clone().any(|n| n == 0) && entries.clone().any(|n| n > 0)
        })
    };
    let mut keys = 0u64;
    while !groups_on_different_levels(&db) {
        assert!(keys < 50_000, "preload never split the column groups");
        for _ in 0..100 {
            db.insert_int_row(keys, keys as i64).unwrap();
            keys += 1;
        }
    }
    let all = Projection::all(&schema);
    let rows = db.scan(0, u64::MAX, &all).unwrap();
    assert_eq!(rows.len() as u64, keys);
    for (key, fragment) in &rows {
        assert_eq!(
            db.read(*key, &all).unwrap().as_ref(),
            Some(fragment),
            "scan and read disagree on key {key}"
        );
    }
}

/// Advisor output, cost model and engine compose: the selected design is
/// valid, runs the workload, and its analytic cost is no worse than both
/// extremes for the workload it was selected for.
#[test]
fn advisor_design_runs_and_beats_extremes_analytically() {
    let spec = HtapWorkloadSpec {
        num_columns: 30,
        ..HtapWorkloadSpec::scaled_down()
    };
    let schema = Schema::narrow();
    let params = TreeParameters {
        num_entries: spec.total_keys(),
        size_ratio: 2,
        entries_per_block: 32.0,
        level0_blocks: 16,
        num_columns: 30,
    };
    let trace = build_workload_trace(&spec, &params, 8);
    let design = select_design(
        &schema,
        &trace,
        &AdvisorOptions {
            num_levels: 8,
            design_name: "integration-D-opt".into(),
        },
    )
    .unwrap();
    design.validate().unwrap();

    // Analytic comparison using Equation 8 over the same trace.
    let cost_of = |layout: &LayoutSpec| -> f64 {
        (0..8)
            .map(|level| {
                laser_cost_model::level_workload_cost(
                    &params,
                    layout.level(level),
                    &trace.per_level[level],
                )
            })
            .sum()
    };
    let selected = cost_of(&design);
    let row = cost_of(&LayoutSpec::row_store(&schema, 8));
    let col = cost_of(&LayoutSpec::column_store(&schema, 8));
    assert!(
        selected <= row + 1e-9,
        "selected {selected} should not exceed row-store {row}"
    );
    assert!(
        selected <= col + 1e-9,
        "selected {selected} should not exceed column-store {col}"
    );

    // And the design actually runs.
    let db = LaserDb::open_in_memory(small_options(design)).unwrap();
    for key in 0..500u64 {
        db.insert_int_row(key, 3).unwrap();
    }
    db.compact_all().unwrap();
    assert!(db
        .read(250, &Projection::range_1based(28, 30))
        .unwrap()
        .is_some());
}

/// Crash-recovery across the whole stack: durable storage, WAL replay and
/// manifest recovery preserve both full rows and partial updates.
#[test]
fn recovery_preserves_partial_updates() {
    let storage: StorageRef = MemStorage::new_ref();
    let schema = Schema::with_columns(10);
    let options = small_options(LayoutSpec::equi_width(&schema, 6, 5));
    {
        let db = LaserDb::open(Arc::clone(&storage), options.clone()).unwrap();
        for key in 0..600u64 {
            db.insert_int_row(key, 1).unwrap();
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        // Partial updates that stay only in the WAL (no flush afterwards).
        for key in 0..50u64 {
            db.update(key, vec![(9, Value::Int(12345))]).unwrap();
        }
        // Simulated crash: drop without closing.
    }
    let db = LaserDb::open(storage, options).unwrap();
    let row = db.read(10, &Projection::of([0, 9])).unwrap().unwrap();
    assert_eq!(row.get(9), Some(&Value::Int(12345)), "WAL update lost");
    assert_eq!(row.get(0), Some(&Value::Int(2)), "older column lost");
}

/// Storage faults surface as errors instead of silent corruption, and the
/// engine keeps serving reads for already-durable data.
#[test]
fn storage_faults_are_reported_not_swallowed() {
    let inner = MemStorage::new_ref();
    let faulty = Arc::new(FaultInjectingStorage::new(Arc::clone(&inner)));
    let schema = Schema::with_columns(6);
    let options = small_options(LayoutSpec::equi_width(&schema, 4, 2));
    let db = LaserDb::open(faulty.clone() as StorageRef, options).unwrap();
    for key in 0..200u64 {
        db.insert_int_row(key, 0).unwrap();
    }
    db.flush().unwrap();
    // Now make every append fail: further flushes must error out.
    faulty.set_config(FaultConfig {
        fail_append: true,
        ..Default::default()
    });
    for key in 200..5_000u64 {
        match db.insert_int_row(key, 0) {
            Ok(()) => continue,
            Err(e) => {
                assert!(
                    format!("{e}").contains("injected"),
                    "unexpected error kind: {e}"
                );
                // Reads of durable data still work once faults are lifted.
                faulty.set_config(FaultConfig::default());
                assert!(db.read(10, &Projection::of([0])).unwrap().is_some());
                return;
            }
        }
    }
    panic!("expected an injected failure to surface");
}

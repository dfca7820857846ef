//! Cross-crate integration tests: the full Fig. 2 pipeline, from synthetic
//! training data to verified mappings of real kernels.

use lisa::arch::Accelerator;
use lisa::core::{Lisa, LisaConfig};
use lisa::dfg::polybench;
use lisa::mapper::schedule::{mii, IiSearch};
use lisa::mapper::{LabelSaMapper, SaParams};

#[test]
fn train_predict_map_verify_on_4x4() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();

    for name in ["doitgen", "gemm", "mvt"] {
        let dfg = polybench::kernel(name).unwrap();
        let labels = lisa.predict_labels(&dfg);
        assert!(labels.matches(&dfg), "{name}: label shape mismatch");
        // Physical consistency enforced by prediction post-processing.
        for (s, t) in labels.spatial.iter().zip(&labels.temporal) {
            assert!(t >= s, "{name}: temporal {t} < spatial {s}");
            assert!(*t >= 1.0);
        }
        let (outcome, mapping) = lisa.map_capped(&dfg, &acc, 10);
        assert!(outcome.mapped(), "{name} failed to map");
        let m = mapping.unwrap();
        m.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.ii.unwrap() >= mii(&dfg, &acc));
    }
}

#[test]
fn lisa_matches_or_beats_sa_on_small_kernels() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
    let search = IiSearch { max_ii: Some(12) };

    let mut lisa_total = 0u32;
    let mut sa_total = 0u32;
    for name in ["doitgen", "gemm", "atax", "trmm"] {
        let dfg = polybench::kernel(name).unwrap();
        let (lisa_outcome, _) = lisa.map_capped(&dfg, &acc, 12);
        let sa = LabelSaMapper::vanilla(SaParams::fast(), 5);
        let sa_outcome = search.run(&sa, &dfg, &acc, 1).0;
        lisa_total += lisa_outcome.ii.unwrap_or(13);
        sa_total += sa_outcome.ii.unwrap_or(13);
    }
    // Aggregate comparison is robust to single-kernel noise: LISA's total
    // II across the easy kernels must not be worse than 1.5x SA's.
    assert!(
        f64::from(lisa_total) <= f64::from(sa_total) * 1.5,
        "LISA total II {lisa_total} vs SA {sa_total}"
    );
}

#[test]
fn systolic_pipeline_end_to_end() {
    let acc = Accelerator::systolic("systolic-5x5", 5, 5);
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast().for_systolic()).unwrap();
    // At least the simplest core must map on the systolic array.
    let dfg = polybench::kernel_core("doitgen").unwrap();
    let (outcome, mapping) = lisa.map_capped(&dfg, &acc, acc.max_ii());
    assert!(
        outcome.mapped(),
        "doitgen-core must map on the systolic array"
    );
    assert_eq!(outcome.ii, Some(1), "systolic arrays are spatial-only");
    mapping.unwrap().verify().unwrap();
}

#[test]
fn accuracy_report_has_four_fractions() {
    let acc = Accelerator::cgra("3x3", 3, 3);
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
    let report = lisa.stats();
    assert_eq!(report.accuracy.values.len(), 4);
    for v in report.accuracy.values {
        let v = v.expect("trained model has measured accuracies");
        assert!((0.0..=1.0).contains(&v));
    }
    assert!(report.dfgs_generated >= report.dfgs_labelled);
    assert!(report.dfgs_labelled >= report.dfgs_kept);
}

#[test]
fn unrolled_kernel_maps_on_8x8() {
    // The Fig. 9f scenario at test scale: one unrolled kernel on the big
    // array, which has plenty of resources.
    let acc = Accelerator::cgra("8x8", 8, 8);
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
    let dfg = lisa::dfg::unroll::unroll(&polybench::kernel("gemm").unwrap(), 2);
    let (outcome, mapping) = lisa.map_capped(&dfg, &acc, 10);
    assert!(outcome.mapped(), "gemm_u2 must map on an 8x8 CGRA");
    mapping.unwrap().verify().unwrap();
}

//! Prediction-accuracy metrics matching the paper's definitions (§VI-B).
//!
//! "The prediction is accurate for same-level nodes association and
//! spatial mapping distance if the difference between prediction and
//! ground truth is not more than one. For temporal mapping distance, the
//! prediction is accurate if the difference is not more than two [...].
//! For scheduler order, the prediction is accurate if prediction and
//! ground truth values are the same."

/// The four label kinds of paper Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelKind {
    /// Label 1 — schedule order.
    ScheduleOrder,
    /// Label 2 — same-level nodes association.
    SameLevel,
    /// Label 3 — spatial mapping distance.
    Spatial,
    /// Label 4 — temporal mapping distance.
    Temporal,
}

impl LabelKind {
    /// All four labels in Table I order.
    pub const ALL: [LabelKind; 4] = [
        LabelKind::ScheduleOrder,
        LabelKind::SameLevel,
        LabelKind::Spatial,
        LabelKind::Temporal,
    ];

    /// Paper label id (1–4).
    pub fn id(self) -> u8 {
        match self {
            LabelKind::ScheduleOrder => 1,
            LabelKind::SameLevel => 2,
            LabelKind::Spatial => 3,
            LabelKind::Temporal => 4,
        }
    }

    /// Display name as used in Table I.
    pub fn name(self) -> &'static str {
        match self {
            LabelKind::ScheduleOrder => "schedule order",
            LabelKind::SameLevel => "same-level nodes association",
            LabelKind::Spatial => "spatial mapping distance",
            LabelKind::Temporal => "temporal mapping distance",
        }
    }
}

/// Whether one prediction counts as accurate for the label kind.
pub fn is_accurate(kind: LabelKind, prediction: f64, truth: f64) -> bool {
    match kind {
        // Schedule order is an ordinal: compare after rounding.
        LabelKind::ScheduleOrder => prediction.round() == truth.round(),
        LabelKind::SameLevel | LabelKind::Spatial => (prediction - truth).abs() <= 1.0,
        LabelKind::Temporal => (prediction - truth).abs() <= 2.0,
    }
}

/// Fraction of accurate predictions, or `None` for empty input.
///
/// `None` is "no data", which is distinct from "0% accurate" — use this
/// variant wherever the result ends up in a summary table so an empty
/// eval split renders as "n/a" instead of a fake score.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn try_accuracy(kind: LabelKind, predictions: &[f64], truths: &[f64]) -> Option<f64> {
    assert_eq!(predictions.len(), truths.len(), "length mismatch");
    if predictions.is_empty() {
        return None;
    }
    let hits = predictions
        .iter()
        .zip(truths)
        .filter(|&(&p, &t)| is_accurate(kind, p, t))
        .count();
    Some(hits as f64 / predictions.len() as f64)
}

/// Fraction of accurate predictions (0 for empty input).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(kind: LabelKind, predictions: &[f64], truths: &[f64]) -> f64 {
    try_accuracy(kind, predictions, truths).unwrap_or(0.0)
}

/// Mean squared error of a prediction set.
///
/// Empty inputs return the sentinel 0.0 (a perfect score) rather than
/// NaN, so callers aggregating per-benchmark metrics never propagate
/// NaN through summary tables; check emptiness upstream when "no data"
/// must be distinguished from "no error".
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(predictions: &[f64], truths: &[f64]) -> f64 {
    try_mse(predictions, truths).unwrap_or(0.0)
}

/// Mean squared error, or `None` for empty input (the "no data" case
/// that [`mse`]'s 0.0 sentinel cannot distinguish from a perfect fit).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn try_mse(predictions: &[f64], truths: &[f64]) -> Option<f64> {
    assert_eq!(predictions.len(), truths.len(), "length mismatch");
    if predictions.is_empty() {
        return None;
    }
    Some(
        predictions
            .iter()
            .zip(truths)
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum::<f64>()
            / predictions.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_order_requires_equality_after_rounding() {
        assert!(is_accurate(LabelKind::ScheduleOrder, 2.4, 2.0));
        assert!(!is_accurate(LabelKind::ScheduleOrder, 2.6, 2.0));
    }

    #[test]
    fn spatial_tolerance_is_one() {
        assert!(is_accurate(LabelKind::Spatial, 3.9, 3.0));
        assert!(is_accurate(LabelKind::SameLevel, 2.0, 3.0));
        assert!(!is_accurate(LabelKind::Spatial, 4.1, 3.0));
    }

    #[test]
    fn temporal_tolerance_is_two() {
        assert!(is_accurate(LabelKind::Temporal, 5.9, 4.0));
        assert!(!is_accurate(LabelKind::Temporal, 6.1, 4.0));
    }

    #[test]
    fn accuracy_fraction() {
        let preds = [1.0, 2.0, 10.0];
        let truths = [1.2, 2.9, 2.0];
        let acc = accuracy(LabelKind::Spatial, &preds, &truths);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(LabelKind::Spatial, &[], &[]), 0.0);
    }

    #[test]
    fn try_variants_distinguish_no_data_from_zero() {
        assert_eq!(try_accuracy(LabelKind::Spatial, &[], &[]), None);
        assert_eq!(try_mse(&[], &[]), None);
        assert_eq!(try_accuracy(LabelKind::Spatial, &[1.0], &[1.0]), Some(1.0));
        assert_eq!(try_mse(&[1.0], &[0.0]), Some(1.0));
    }

    #[test]
    fn mse_basic() {
        assert!((mse(&[1.0, 3.0], &[0.0, 1.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ids_match_table_one() {
        assert_eq!(LabelKind::ALL.map(LabelKind::id), [1, 2, 3, 4]);
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn empty_inputs_use_documented_sentinels() {
        assert_eq!(mse(&[], &[]), 0.0);
        assert!(mse(&[], &[]).is_finite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_length_mismatch_panics() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }
}

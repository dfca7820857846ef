//! Predict-then-verify movement filter: training-pair capture, the
//! `lisa-movement-set v1` text format, and the learned
//! [`MovementPredictor`] that gates the SA router (see
//! `lisa_mapper::predictor` for the mapper-side contract and DESIGN.md
//! "Predict-then-verify movement filter" for the exactness argument).
//!
//! # The `lisa-movement-set v1` format
//!
//! Training pairs come for free: any annealing run with an observer
//! attached emits one `SaMovementSample` event per proposed movement,
//! carrying the movement feature vector and the exact routed Δcost. A
//! [`MovementRecorder`] collects them; [`write_movement_set`] persists
//! them in the `labels::dataset` style:
//!
//! ```text
//! lisa-movement-set v1
//! features 14
//! pairs 2
//!
//! pair 0
//! x 0.25 0.0 1.0 ...
//! y -42.5
//!
//! pair 1
//! x 0.5 0.0 0.75 ...
//! y 100.01
//! ```
//!
//! Floats use Rust's shortest-round-trip `{:?}` formatting, so
//! parse → re-serialize reproduces the original bytes.
//!
//! # Training and the admission threshold
//!
//! [`MovementPredictor::train`] fits the existing [`EdgeMlp`] regressor
//! to squashed deltas `y = Δ / (1 + |Δ|)` (bounded targets keep the MSE
//! loss well-conditioned against the annealer's occasional huge
//! unroute penalties). The admission threshold is then chosen from the
//! training set itself: the 95th percentile of the net's own scores on
//! the *improving* pairs (`Δ ≤ 0`), so on the training distribution at
//! most ~5% of genuinely good movements are filtered. Admission is
//! additionally temperature-aware: while the chain is hot, movements
//! whose predicted delta is within `TEMP_SLACK · temp` are admitted
//! even above the threshold, because metropolis would routinely accept
//! them — a temperature-blind gate starves tight feasibility searches
//! of the uphill moves they converge through. Runs audit the realised
//! false-reject rate deterministically (1 in 16 rejects is routed
//! measure-only), surfacing drift between the training kernels and the
//! mapped kernel.

use std::fmt;
use std::sync::Mutex;

use lisa_events::{Observer, PipelineEvent};
use lisa_gnn::dataset::EdgeSample;
use lisa_gnn::models::EdgeMlp;
use lisa_gnn::{CompiledEdgeMlp, PlanScratch, TrainConfig, TrainReport};
use lisa_mapper::{MovementScorer, MOVEMENT_FEATURE_DIM};

/// One captured movement: the pre-routing feature vector and the exact
/// routed cost delta the annealer measured for it.
#[derive(Debug, Clone, PartialEq)]
pub struct MovementPair {
    /// Movement feature vector (see `lisa_mapper::predictor`).
    pub features: Vec<f64>,
    /// Exact `new_cost - old_cost` of the routed movement.
    pub delta_cost: f64,
}

/// A training set of captured movements with a fixed feature width.
#[derive(Debug, Clone, PartialEq)]
pub struct MovementSet {
    /// Width of every feature vector in `pairs`.
    pub feature_dim: usize,
    /// The captured pairs, in emission order.
    pub pairs: Vec<MovementPair>,
}

impl MovementSet {
    /// Creates an empty set for the mapper's current feature layout.
    pub fn new() -> Self {
        MovementSet {
            feature_dim: MOVEMENT_FEATURE_DIM,
            pairs: Vec::new(),
        }
    }

    /// Appends a pair whose feature width matches the set.
    ///
    /// Pairs of any other width are dropped (the set stays rectangular;
    /// callers mixing mapper versions lose the foreign samples rather
    /// than corrupting the set).
    pub fn push(&mut self, pair: MovementPair) {
        if pair.features.len() == self.feature_dim {
            self.pairs.push(pair);
        }
    }

    /// Number of captured pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs were captured.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

impl Default for MovementSet {
    fn default() -> Self {
        MovementSet::new()
    }
}

/// Serialises a movement set in the `lisa-movement-set v1` format.
pub fn write_movement_set(set: &MovementSet) -> String {
    let mut out = String::new();
    out.push_str("lisa-movement-set v1\n");
    out.push_str(&format!("features {}\n", set.feature_dim));
    out.push_str(&format!("pairs {}\n", set.pairs.len()));
    for (i, p) in set.pairs.iter().enumerate() {
        out.push_str(&format!("\npair {i}\nx"));
        for v in &p.features {
            out.push_str(&format!(" {v:?}"));
        }
        out.push_str(&format!("\ny {:?}\n", p.delta_cost));
    }
    out
}

/// Errors from [`parse_movement_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MovementSetParseError {
    /// The document does not start with `lisa-movement-set v1`.
    BadHeader,
    /// A header field or pair record is malformed.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was expected there.
        expected: &'static str,
    },
    /// The document ended before the declared pair count.
    Truncated {
        /// Pairs declared in the header.
        declared: usize,
        /// Pairs actually present.
        found: usize,
    },
}

impl fmt::Display for MovementSetParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MovementSetParseError::BadHeader => {
                write!(f, "not a lisa-movement-set v1 document")
            }
            MovementSetParseError::Malformed { line, expected } => {
                write!(f, "line {line}: expected {expected}")
            }
            MovementSetParseError::Truncated { declared, found } => {
                write!(f, "document declares {declared} pairs but holds {found}")
            }
        }
    }
}

impl std::error::Error for MovementSetParseError {}

/// Parses a `lisa-movement-set v1` document written by
/// [`write_movement_set`].
///
/// # Errors
///
/// Returns a [`MovementSetParseError`] describing the first malformed
/// line; partial documents are rejected (capture is atomic, unlike the
/// incremental dataset checkpoints).
pub fn parse_movement_set(text: &str) -> Result<MovementSet, MovementSetParseError> {
    let mut lines = text.lines().enumerate();
    let mut next_content = |expected: &'static str| {
        for (i, l) in lines.by_ref() {
            if !l.is_empty() {
                return Ok((i + 1, l));
            }
        }
        Err(MovementSetParseError::Malformed { line: 0, expected })
    };

    let (_, header) = next_content("header").map_err(|_| MovementSetParseError::BadHeader)?;
    if header != "lisa-movement-set v1" {
        return Err(MovementSetParseError::BadHeader);
    }
    let feature_dim = parse_field(next_content("features <n>")?, "features")?;
    let declared: usize = parse_field(next_content("pairs <n>")?, "pairs")?;

    let mut set = MovementSet {
        feature_dim,
        pairs: Vec::with_capacity(declared),
    };
    for i in 0..declared {
        let (line, l) = next_content("pair <i>")
            .map_err(|_| MovementSetParseError::Truncated { declared, found: i })?;
        if l != format!("pair {i}") {
            return Err(MovementSetParseError::Malformed {
                line,
                expected: "pair <i>",
            });
        }
        let (line, l) = next_content("x <f64>...")?;
        let rest = l
            .strip_prefix("x")
            .ok_or(MovementSetParseError::Malformed {
                line,
                expected: "x <f64>...",
            })?;
        let features = rest
            .split_ascii_whitespace()
            .map(str::parse)
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|_| MovementSetParseError::Malformed {
                line,
                expected: "x <f64>...",
            })?;
        if features.len() != feature_dim {
            return Err(MovementSetParseError::Malformed {
                line,
                expected: "feature vector of declared width",
            });
        }
        let (line, l) = next_content("y <f64>")?;
        let delta_cost = l.strip_prefix("y ").and_then(|v| v.parse().ok()).ok_or(
            MovementSetParseError::Malformed {
                line,
                expected: "y <f64>",
            },
        )?;
        set.pairs.push(MovementPair {
            features,
            delta_cost,
        });
    }
    if let Some((i, l)) = lines.find(|(_, l)| !l.is_empty()) {
        let _ = l;
        return Err(MovementSetParseError::Malformed {
            line: i + 1,
            expected: "end of document",
        });
    }
    Ok(set)
}

fn parse_field(
    (line, l): (usize, &str),
    key: &'static str,
) -> Result<usize, MovementSetParseError> {
    l.strip_prefix(key)
        .and_then(|v| v.trim().parse().ok())
        .ok_or(MovementSetParseError::Malformed {
            line,
            expected: key,
        })
}

/// An [`Observer`] that collects `SaMovementSample` events into a
/// [`MovementSet`]. Attach it to any annealing run (`with_observer`) and
/// training pairs accumulate as a free by-product of the search.
#[derive(Debug, Default)]
pub struct MovementRecorder {
    pairs: Mutex<Vec<MovementPair>>,
}

impl MovementRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MovementRecorder::default()
    }

    /// Copies everything captured so far into a [`MovementSet`].
    pub fn snapshot(&self) -> MovementSet {
        let pairs = match self.pairs.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        let mut set = MovementSet::new();
        for p in pairs {
            set.push(p);
        }
        set
    }
}

impl Observer for MovementRecorder {
    fn event(&self, event: &PipelineEvent) {
        if let PipelineEvent::SaMovementSample {
            features,
            delta_cost,
            ..
        } = event
        {
            let mut guard = match self.pairs.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.push(MovementPair {
                features: features.clone(),
                delta_cost: *delta_cost,
            });
        }
    }
}

/// Share of improving training movements the threshold must admit.
const ADMIT_QUANTILE: f64 = 0.95;
/// Below this many improving pairs the percentile is noise; the
/// predictor then admits everything (threshold `+inf`).
const MIN_IMPROVING: usize = 8;
/// Temperature slack of the admission rule: a predicted-worsening
/// movement is still admitted while its predicted cost delta is within
/// `TEMP_SLACK * temp`, i.e. while its metropolis acceptance probability
/// is at least `e^-TEMP_SLACK`. Only movements the accept test would
/// almost surely throw away are pruned, so the filter never starves the
/// hot phase of the uphill moves annealing converges through.
const TEMP_SLACK: f64 = 0.75;

/// The learned movement filter: an [`EdgeMlp`] scoring movements by
/// predicted (squashed) Δcost, admitting those at or below a threshold
/// calibrated on the training set.
#[derive(Debug, Clone)]
pub struct MovementPredictor {
    net: EdgeMlp,
    compiled: CompiledEdgeMlp,
    threshold: f64,
}

/// Errors from [`MovementPredictor::train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MovementTrainError {
    /// The training set holds no pairs.
    EmptySet,
    /// The training set declares a zero feature width.
    ZeroFeatureDim,
}

impl fmt::Display for MovementTrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MovementTrainError::EmptySet => write!(f, "movement set holds no pairs"),
            MovementTrainError::ZeroFeatureDim => write!(f, "movement set has zero-width features"),
        }
    }
}

impl std::error::Error for MovementTrainError {}

/// Errors from [`MovementPredictor::parse`].
#[derive(Debug)]
pub enum MovementPredictorParseError {
    /// The document does not start with `lisa-movement-predictor v1`.
    BadHeader,
    /// The `features <n>` line is missing or malformed.
    BadFeatures,
    /// The `threshold <f64>` line is missing or malformed.
    BadThreshold,
    /// The `net` section is missing.
    MissingNet,
    /// The embedded weight dump failed to parse.
    BadWeights(lisa_gnn::io::ParseParamsError),
}

impl fmt::Display for MovementPredictorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MovementPredictorParseError::BadHeader => {
                write!(f, "not a lisa-movement-predictor v1 document")
            }
            MovementPredictorParseError::BadFeatures => {
                write!(f, "missing or malformed `features <n>` line")
            }
            MovementPredictorParseError::BadThreshold => {
                write!(f, "missing or malformed `threshold <f64>` line")
            }
            MovementPredictorParseError::MissingNet => write!(f, "missing `net` section"),
            MovementPredictorParseError::BadWeights(e) => write!(f, "net weights: {e}"),
        }
    }
}

impl std::error::Error for MovementPredictorParseError {}

/// Bounds a raw cost delta to `(-1, 1)`: `y = Δ / (1 + |Δ|)`.
fn squash(delta: f64) -> f64 {
    delta / (1.0 + delta.abs())
}

impl MovementPredictor {
    /// Trains a predictor on a captured movement set and calibrates its
    /// admission threshold (see the module docs).
    ///
    /// Deterministic in `(set, config, seed)`.
    ///
    /// # Errors
    ///
    /// Fails on an empty or zero-width set.
    pub fn train(
        set: &MovementSet,
        config: &TrainConfig,
        seed: u64,
    ) -> Result<(MovementPredictor, TrainReport), MovementTrainError> {
        if set.feature_dim == 0 {
            return Err(MovementTrainError::ZeroFeatureDim);
        }
        if set.pairs.is_empty() {
            return Err(MovementTrainError::EmptySet);
        }
        let samples: Vec<EdgeSample> = set
            .pairs
            .iter()
            .map(|p| EdgeSample {
                attrs: p.features.clone(),
                target: squash(p.delta_cost),
            })
            .collect();
        let mut net = EdgeMlp::new(set.feature_dim, seed);
        let report = net.train(&samples, config);
        let compiled = net.compile();

        let mut improving: Vec<f64> = PlanScratch::with(|scratch| {
            set.pairs
                .iter()
                .filter(|p| p.delta_cost <= 0.0)
                .map(|p| compiled.predict(scratch, &p.features))
                .collect()
        });
        let threshold = if improving.len() < MIN_IMPROVING {
            f64::INFINITY
        } else {
            improving.sort_by(f64::total_cmp);
            let idx = ((improving.len() - 1) as f64 * ADMIT_QUANTILE).round() as usize;
            improving[idx.min(improving.len() - 1)]
        };
        Ok((
            MovementPredictor {
                net,
                compiled,
                threshold,
            },
            report,
        ))
    }

    /// The calibrated admission threshold (`+inf` admits everything).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Expected feature vector width.
    pub fn feature_dim(&self) -> usize {
        self.net.attr_dim()
    }

    /// Raw predicted score for a movement — the net's estimate of the
    /// squashed cost delta `Δ / (1 + |Δ|)`. Lower is better; admission
    /// compares this against the threshold and the temperature slack.
    pub fn score(&self, features: &[f64]) -> f64 {
        PlanScratch::with(|scratch| self.compiled.predict(scratch, features))
    }

    /// Serialises the predictor (`lisa-movement-predictor v1`): header,
    /// feature width, threshold, then the net's `lisa-gnn-params v1`
    /// dump. Bit-exact round trip through [`MovementPredictor::parse`].
    pub fn export(&self) -> String {
        format!(
            "lisa-movement-predictor v1\nfeatures {}\nthreshold {:?}\nnet\n{}",
            self.net.attr_dim(),
            self.threshold,
            self.net.export_weights()
        )
    }

    /// Restores a predictor written by [`MovementPredictor::export`].
    ///
    /// # Errors
    ///
    /// Returns a [`MovementPredictorParseError`] naming the malformed
    /// section.
    pub fn parse(text: &str) -> Result<MovementPredictor, MovementPredictorParseError> {
        let mut lines = text.splitn(5, '\n');
        if lines.next() != Some("lisa-movement-predictor v1") {
            return Err(MovementPredictorParseError::BadHeader);
        }
        let feature_dim: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("features "))
            .and_then(|v| v.parse().ok())
            .filter(|&d| d > 0)
            .ok_or(MovementPredictorParseError::BadFeatures)?;
        let threshold: f64 = lines
            .next()
            .and_then(|l| l.strip_prefix("threshold "))
            .and_then(|v| v.parse().ok())
            .ok_or(MovementPredictorParseError::BadThreshold)?;
        if lines.next() != Some("net") {
            return Err(MovementPredictorParseError::MissingNet);
        }
        let weights = lines
            .next()
            .ok_or(MovementPredictorParseError::MissingNet)?;
        let mut net = EdgeMlp::new(feature_dim, 0);
        net.import_weights(weights)
            .map_err(MovementPredictorParseError::BadWeights)?;
        let compiled = net.compile();
        Ok(MovementPredictor {
            net,
            compiled,
            threshold,
        })
    }
}

impl MovementScorer for MovementPredictor {
    fn admit(&self, features: &[f64], temp: f64) -> bool {
        // Fail open: a feature layout from a different mapper version
        // cannot be scored, and admitting preserves exactness.
        if features.len() != self.net.attr_dim() {
            return true;
        }
        let score = self.score(features);
        // Temperature-aware admission: the trained threshold separates
        // improving movements from worsening ones, but while the annealer
        // is hot, metropolis *accepts* worsening movements routinely —
        // rejecting them starves tight feasibility searches of the large
        // uphill perturbations they converge through. Scores approximate
        // the squashed cost delta y = d/(1+|d|), which is monotone in d,
        // so "predicted delta <= TEMP_SLACK * temp" (a metropolis
        // acceptance probability of at least e^-TEMP_SLACK) is exactly
        // "score <= squash(TEMP_SLACK * temp)" — no inverse needed.
        let slack = TEMP_SLACK * temp;
        score <= self.threshold.max(slack / (1.0 + slack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_set(seed: u64, count: usize) -> MovementSet {
        let mut set = MovementSet::new();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..count {
            let features: Vec<f64> = (0..MOVEMENT_FEATURE_DIM).map(|_| next()).collect();
            let delta_cost = (next() - 0.5) * 2000.0;
            set.push(MovementPair {
                features,
                delta_cost,
            });
        }
        set
    }

    /// A set the net can separate: feature 0 alone decides the sign of
    /// the delta, with a wide margin.
    fn separable_set(n: usize) -> MovementSet {
        let mut set = MovementSet::new();
        for i in 0..n {
            let good = i % 2 == 0;
            let mut features = vec![0.0; MOVEMENT_FEATURE_DIM];
            features[0] = if good { 0.0 } else { 1.0 };
            features[1] = (i % 7) as f64 / 7.0;
            set.push(MovementPair {
                features,
                delta_cost: if good { -50.0 } else { 400.0 },
            });
        }
        set
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let set = sample_set(7, 5);
        let text = write_movement_set(&set);
        let parsed = parse_movement_set(&text).unwrap();
        assert_eq!(parsed, set);
        assert_eq!(write_movement_set(&parsed), text);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert_eq!(
            parse_movement_set("nope"),
            Err(MovementSetParseError::BadHeader)
        );
        let text = write_movement_set(&sample_set(1, 3));
        let truncated: String = text.lines().take(6).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            parse_movement_set(&truncated),
            Err(MovementSetParseError::Malformed { .. })
        ));
        let mut missing = write_movement_set(&sample_set(1, 1));
        missing = missing.replace("pairs 1", "pairs 2");
        assert_eq!(
            parse_movement_set(&missing),
            Err(MovementSetParseError::Truncated {
                declared: 2,
                found: 1
            })
        );
    }

    #[test]
    fn recorder_collects_movement_samples_only() {
        let rec = MovementRecorder::new();
        rec.event(&PipelineEvent::SaMovementSample {
            chain: 0,
            ii: 2,
            features: vec![0.5; MOVEMENT_FEATURE_DIM],
            delta_cost: -3.0,
        });
        rec.event(&PipelineEvent::SaFilterSummary {
            chain: 0,
            ii: 2,
            proposals: 1,
            admitted: 1,
            rejected: 0,
            audited: 0,
            false_rejects: 0,
            router_invocations: 2,
            audit_router_invocations: 0,
        });
        let set = rec.snapshot();
        assert_eq!(set.len(), 1);
        assert_eq!(set.pairs[0].delta_cost, -3.0);
    }

    #[test]
    fn trained_predictor_separates_good_from_bad_movements() {
        let set = separable_set(64);
        let config = TrainConfig {
            epochs: 200,
            ..TrainConfig::fast()
        };
        let (p, report) = MovementPredictor::train(&set, &config, 11).unwrap();
        assert!(report.improved());
        assert!(p.threshold().is_finite());
        let mut good = vec![0.0; MOVEMENT_FEATURE_DIM];
        good[1] = 0.3;
        let mut bad = good.clone();
        bad[0] = 1.0;
        assert!(p.admit(&good, 0.0), "improving movement must be admitted");
        assert!(!p.admit(&bad, 0.0), "worsening movement must be rejected");
    }

    #[test]
    fn hot_chains_keep_their_uphill_moves() {
        let set = separable_set(64);
        let config = TrainConfig {
            epochs: 200,
            ..TrainConfig::fast()
        };
        let (p, _) = MovementPredictor::train(&set, &config, 11).unwrap();
        // Temperature-aware admission: a worsening movement whose score
        // is finite in squash space (below 1, i.e. a finite predicted
        // delta) is rejected by a cold chain but admitted while the
        // chain is hot enough that metropolis would routinely accept
        // its predicted delta anyway. Scores at or above 1 ("worse than
        // any finite delta") stay rejected at every temperature.
        let mut exercised = 0;
        for pair in &set.pairs {
            let s = p.score(&pair.features);
            if s > p.threshold().max(0.0) && s < 1.0 {
                assert!(!p.admit(&pair.features, 0.0), "cold chain must reject");
                // squash(TEMP_SLACK * hot) = 2s/(1+s) > s for s in (0, 1).
                let hot = 2.0 * s / (TEMP_SLACK * (1.0 - s));
                assert!(p.admit(&pair.features, hot), "hot chain must admit");
                exercised += 1;
            }
        }
        assert!(exercised > 0, "no worsening pair scored in (threshold, 1)");
    }

    #[test]
    fn too_few_improving_pairs_admits_everything() {
        let mut set = MovementSet::new();
        for i in 0..20 {
            set.push(MovementPair {
                features: vec![i as f64 / 20.0; MOVEMENT_FEATURE_DIM],
                delta_cost: 10.0,
            });
        }
        let (p, _) = MovementPredictor::train(&set, &TrainConfig::fast(), 3).unwrap();
        assert_eq!(p.threshold(), f64::INFINITY);
        assert!(p.admit(&vec![0.9; MOVEMENT_FEATURE_DIM], 0.0));
    }

    #[test]
    fn train_rejects_degenerate_sets() {
        assert_eq!(
            MovementPredictor::train(&MovementSet::new(), &TrainConfig::fast(), 0).err(),
            Some(MovementTrainError::EmptySet)
        );
        let zero = MovementSet {
            feature_dim: 0,
            pairs: vec![MovementPair {
                features: vec![],
                delta_cost: 0.0,
            }],
        };
        assert_eq!(
            MovementPredictor::train(&zero, &TrainConfig::fast(), 0).err(),
            Some(MovementTrainError::ZeroFeatureDim)
        );
    }

    #[test]
    fn predictor_round_trips_through_text() {
        let (p, _) = MovementPredictor::train(&separable_set(32), &TrainConfig::fast(), 5).unwrap();
        let text = p.export();
        let q = MovementPredictor::parse(&text).unwrap();
        assert_eq!(q.export(), text);
        assert_eq!(q.threshold(), p.threshold());
        for pair in &separable_set(32).pairs {
            assert_eq!(p.admit(&pair.features, 0.0), q.admit(&pair.features, 0.0));
        }
    }

    #[test]
    fn predictor_is_shareable_across_threads() {
        let (p, _) = MovementPredictor::train(&separable_set(32), &TrainConfig::fast(), 5).unwrap();
        let p: Arc<dyn MovementScorer> = Arc::new(p);
        let feats = vec![0.2; MOVEMENT_FEATURE_DIM];
        let expect = p.admit(&feats, 0.0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                let feats = feats.clone();
                std::thread::spawn(move || p.admit(&feats, 0.0))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn mismatched_feature_width_fails_open() {
        let (p, _) = MovementPredictor::train(&separable_set(32), &TrainConfig::fast(), 5).unwrap();
        assert!(p.admit(&[0.0; 3], 0.0));
    }

    #[test]
    fn parse_errors_name_the_section() {
        assert!(matches!(
            MovementPredictor::parse("junk"),
            Err(MovementPredictorParseError::BadHeader)
        ));
        assert!(matches!(
            MovementPredictor::parse("lisa-movement-predictor v1\nfeatures 0\n"),
            Err(MovementPredictorParseError::BadFeatures)
        ));
        assert!(matches!(
            MovementPredictor::parse("lisa-movement-predictor v1\nfeatures 14\nthreshold x\n"),
            Err(MovementPredictorParseError::BadThreshold)
        ));
        assert!(matches!(
            MovementPredictor::parse("lisa-movement-predictor v1\nfeatures 14\nthreshold 0.5\n"),
            Err(MovementPredictorParseError::MissingNet)
        ));
        assert!(matches!(
            MovementPredictor::parse(
                "lisa-movement-predictor v1\nfeatures 14\nthreshold 0.5\nnet\njunk"
            ),
            Err(MovementPredictorParseError::BadWeights(_))
        ));
    }

    lisa_rng::props! {
        cases = 24;

        /// Random movement sets survive a write/parse round trip and
        /// re-serializing reproduces the exact bytes.
        fn movement_sets_round_trip(seed in 0u64..1_000_000, count in 0usize..8) {
            let set = sample_set(seed, count);
            let text = write_movement_set(&set);
            let parsed = parse_movement_set(&text).unwrap();
            assert_eq!(parsed, set);
            assert_eq!(write_movement_set(&parsed), text);
        }
    }
}

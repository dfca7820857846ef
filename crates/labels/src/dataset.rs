//! Conversion of labelled DFGs into GNN training samples, the
//! per-accelerator training-set container, and the `lisa-dataset v1`
//! checkpoint format for label-generation output.
//!
//! # The `lisa-dataset v1` format
//!
//! Label generation is the time-dominant one-off step of porting LISA to
//! a new accelerator (§V-B), so its output persists incrementally: a
//! [`DatasetWriter`] appends one self-contained entry per DFG and flushes
//! it immediately, and a run killed mid-generation leaves a prefix that
//! [`parse_dataset_partial`] recovers losslessly. The layout follows the
//! sectioned `lisa-model v1` style:
//!
//! ```text
//! lisa-dataset v1
//! accelerator 4x4
//! count 12
//!
//! entry 0
//! lisa-dfg v1
//! ...
//! end dfg
//! labels
//! best_ii 3
//! mii 2
//! candidates 4
//! schedule_order 0.0 1.0 ...
//! same_level 1
//! sl 0 1 1.5
//! spatial 1.0 ...
//! temporal 1.0 ...
//! end labels
//! end entry
//! ```
//!
//! Unmappable DFGs record a single `unmappable` line in place of the
//! `labels` section. Floats use Rust's shortest-round-trip `{:?}`
//! formatting, so parse → re-serialize reproduces the original bytes —
//! the property the resume path relies on for byte-identical checkpoint
//! rewrites.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use lisa_dfg::text::{parse_dfg_lines, write_dfg_into, ParseDfgError};
use lisa_dfg::{Dfg, NodeId};
use lisa_gnn::dataset::{ContextEdgeSample, EdgeSample, NodeGraphSample};
use lisa_mapper::GuidanceLabels;

use crate::attributes::DfgAttributes;
use crate::iter_gen::GeneratedLabels;

/// The full training set of one accelerator, split per label network.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// Whole-graph samples for the schedule-order GNN (label 1).
    pub node_graphs: Vec<NodeGraphSample>,
    /// Dummy-edge samples for the same-level MLP (label 2).
    pub same_level: Vec<EdgeSample>,
    /// Context samples for the spatial-distance network (label 3).
    pub spatial: Vec<ContextEdgeSample>,
    /// Edge samples for the temporal-distance MLP (label 4).
    pub temporal: Vec<EdgeSample>,
}

impl TrainingSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TrainingSet::default()
    }

    /// Appends all samples derived from one labelled DFG.
    ///
    /// # Panics
    ///
    /// Panics if the labels do not match the DFG's shape.
    pub fn push(&mut self, dfg: &Dfg, labels: &GuidanceLabels) {
        assert!(labels.matches(dfg), "labels do not match the DFG");
        let attrs = DfgAttributes::generate(dfg);

        self.node_graphs.push(NodeGraphSample {
            node_attrs: attrs.node.clone(),
            neighbors: DfgAttributes::adjacency(dfg),
            targets: labels.schedule_order.clone(),
        });

        // Dummy edges come back in the same canonical order the labels use
        // (both derive from `same_level::dummy_edges`).
        debug_assert_eq!(attrs.dummy_edges.len(), labels.same_level.len());
        for (i, (d, &(a, b, target))) in
            attrs.dummy_edges.iter().zip(&labels.same_level).enumerate()
        {
            debug_assert_eq!((d.a, d.b), (a, b), "dummy edge order mismatch");
            self.same_level.push(EdgeSample {
                attrs: attrs.dummy[i].clone(),
                target,
            });
        }

        for e in dfg.edge_ids() {
            self.spatial.push(ContextEdgeSample {
                attrs: attrs.edge[e.index()].clone(),
                neighbor_attrs: attrs.edge_neighborhood(dfg, e),
                target: labels.spatial[e.index()],
            });
            self.temporal.push(EdgeSample {
                attrs: attrs.edge[e.index()].clone(),
                target: labels.temporal[e.index()],
            });
        }
    }

    /// Whether the set holds any samples at all.
    pub fn is_empty(&self) -> bool {
        self.node_graphs.is_empty()
    }
}

/// Header line of the labelled-dataset format.
pub const DATASET_HEADER: &str = "lisa-dataset v1";

/// One checkpointed label-generation outcome: the source DFG plus its
/// labels (`None` when no round produced a complete mapping).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// The DFG the labels were generated for.
    pub dfg: Dfg,
    /// The generation outcome; `None` marks an unmappable DFG.
    pub outcome: Option<GeneratedLabels>,
}

/// Why a `lisa-dataset v1` document failed to parse.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetParseError {
    /// The first line was not `lisa-dataset v1`.
    BadHeader,
    /// A structural line did not match its expected shape.
    BadLine {
        /// The offending line, verbatim.
        line: String,
    },
    /// An embedded DFG block failed to parse.
    Dfg(ParseDfgError),
    /// A `labels` section disagreed with its DFG's node/edge counts.
    LabelShapeMismatch {
        /// Index of the offending entry.
        entry: usize,
    },
    /// The document ended before the structure was complete.
    UnexpectedEof,
    /// Fewer or more entries than the header's `count` declared.
    CountMismatch {
        /// Count declared in the header.
        declared: usize,
        /// Entries actually present.
        found: usize,
    },
    /// Non-blank content followed the final entry.
    TrailingContent {
        /// The first unexpected line.
        line: String,
    },
}

impl fmt::Display for DatasetParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetParseError::BadHeader => {
                write!(f, "missing `{DATASET_HEADER}` header")
            }
            DatasetParseError::BadLine { line } => write!(f, "malformed line: `{line}`"),
            DatasetParseError::Dfg(e) => write!(f, "embedded DFG: {e}"),
            DatasetParseError::LabelShapeMismatch { entry } => {
                write!(f, "entry {entry}: labels do not match the DFG shape")
            }
            DatasetParseError::UnexpectedEof => write!(f, "unexpected end of input"),
            DatasetParseError::CountMismatch { declared, found } => {
                write!(f, "header declares {declared} entries but {found} present")
            }
            DatasetParseError::TrailingContent { line } => {
                write!(f, "unexpected content after final entry: `{line}`")
            }
        }
    }
}

impl std::error::Error for DatasetParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetParseError::Dfg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseDfgError> for DatasetParseError {
    fn from(e: ParseDfgError) -> Self {
        DatasetParseError::Dfg(e)
    }
}

/// A parsed (possibly partial) `lisa-dataset v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Accelerator the labels were generated for.
    pub accelerator: String,
    /// Total entry count the producing run planned.
    pub declared_count: usize,
    /// The entries present, in DFG-index order.
    pub entries: Vec<DatasetEntry>,
}

impl Dataset {
    /// Whether every planned entry is present.
    pub fn is_complete(&self) -> bool {
        self.entries.len() == self.declared_count
    }
}

/// Serializes the dataset header.
pub fn write_dataset_header(accelerator: &str, count: usize) -> String {
    format!("{DATASET_HEADER}\naccelerator {accelerator}\ncount {count}\n")
}

/// Appends one entry block (preceded by a blank separator line) to `out`.
pub fn write_entry_into(out: &mut String, index: usize, entry: &DatasetEntry) {
    out.push('\n');
    out.push_str(&format!("entry {index}\n"));
    write_dfg_into(out, &entry.dfg);
    match &entry.outcome {
        None => out.push_str("unmappable\n"),
        Some(generated) => {
            out.push_str("labels\n");
            out.push_str(&format!("best_ii {}\n", generated.best_ii));
            out.push_str(&format!("mii {}\n", generated.mii));
            out.push_str(&format!("candidates {}\n", generated.candidate_count));
            push_f64_line(out, "schedule_order", &generated.labels.schedule_order);
            out.push_str(&format!(
                "same_level {}\n",
                generated.labels.same_level.len()
            ));
            for (a, b, v) in &generated.labels.same_level {
                out.push_str(&format!("sl {} {} {v:?}\n", a.index(), b.index()));
            }
            push_f64_line(out, "spatial", &generated.labels.spatial);
            push_f64_line(out, "temporal", &generated.labels.temporal);
            out.push_str("end labels\n");
        }
    }
    out.push_str("end entry\n");
}

/// Serializes a whole dataset (header plus every entry).
pub fn write_dataset(dataset: &Dataset) -> String {
    let mut out = write_dataset_header(&dataset.accelerator, dataset.declared_count);
    for (i, entry) in dataset.entries.iter().enumerate() {
        write_entry_into(&mut out, i, entry);
    }
    out
}

fn push_f64_line(out: &mut String, key: &str, values: &[f64]) {
    out.push_str(key);
    for v in values {
        out.push(' ');
        out.push_str(&format!("{v:?}"));
    }
    out.push('\n');
}

/// Incremental checkpoint writer: every appended entry reaches the file
/// before `append` returns, so a killed run loses at most the entry being
/// written.
#[derive(Debug)]
pub struct DatasetWriter {
    file: File,
    written: usize,
}

impl DatasetWriter {
    /// Creates (truncating) the dataset file and writes its header.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn create(path: &Path, accelerator: &str, count: usize) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(write_dataset_header(accelerator, count).as_bytes())?;
        file.flush()?;
        Ok(DatasetWriter { file, written: 0 })
    }

    /// Reopens a dataset checkpoint for appending after `entries` were
    /// recovered from it, without ever holding the file in a destroyed
    /// state.
    ///
    /// The expected on-disk prefix (header plus the recovered entries) is
    /// re-serialized — byte-identical, thanks to shortest-round-trip float
    /// formatting. If the existing file starts with exactly those bytes,
    /// the file is truncated to the prefix length in place, dropping only
    /// the torn tail a killed writer left behind. Otherwise (file missing,
    /// or bytes that disagree with the recovered entries) the prefix is
    /// written to a `.tmp` sibling, synced, and atomically renamed over
    /// the target. Either way a crash at any instant leaves a file whose
    /// complete leading entries are recoverable — never a truncated-then-
    /// partially-rewritten checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn resume(
        path: &Path,
        accelerator: &str,
        count: usize,
        entries: &[DatasetEntry],
    ) -> io::Result<Self> {
        let mut prefix = write_dataset_header(accelerator, count);
        for (i, entry) in entries.iter().enumerate() {
            write_entry_into(&mut prefix, i, entry);
        }
        let prefix = prefix.into_bytes();

        let existing = match fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        if let Some(bytes) = existing {
            if bytes.len() >= prefix.len() && bytes[..prefix.len()] == prefix[..] {
                // In append mode every write lands at the (new) end, so
                // truncating the torn tail is the only mutation needed.
                let file = OpenOptions::new().append(true).open(path)?;
                file.set_len(prefix.len() as u64)?;
                return Ok(DatasetWriter {
                    file,
                    written: entries.len(),
                });
            }
        }

        let tmp = path.with_extension("tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&prefix)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(DatasetWriter {
            file,
            written: entries.len(),
        })
    }

    /// Appends and flushes one entry.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, entry: &DatasetEntry) -> io::Result<()> {
        let mut block = String::new();
        write_entry_into(&mut block, self.written, entry);
        self.file.write_all(block.as_bytes())?;
        self.file.flush()?;
        self.written += 1;
        Ok(())
    }

    /// How many entries have been appended.
    pub fn written(&self) -> usize {
        self.written
    }
}

/// Strict parse: requires exactly `count` well-formed entries and nothing
/// after them.
///
/// # Errors
///
/// Returns a [`DatasetParseError`] describing the first problem.
pub fn parse_dataset(text: &str) -> Result<Dataset, DatasetParseError> {
    let (dataset, leftover) = parse_prefix(text, false)?;
    if let Some(line) = leftover {
        return Err(DatasetParseError::TrailingContent { line });
    }
    if !dataset.is_complete() {
        return Err(DatasetParseError::CountMismatch {
            declared: dataset.declared_count,
            found: dataset.entries.len(),
        });
    }
    Ok(dataset)
}

/// Lenient parse for resume: returns every complete leading entry and
/// silently drops a truncated tail (the artifact of a killed writer).
/// Only the header must be intact.
///
/// # Errors
///
/// Returns a [`DatasetParseError`] when the three header lines are
/// malformed.
pub fn parse_dataset_partial(text: &str) -> Result<Dataset, DatasetParseError> {
    parse_prefix(text, true).map(|(dataset, _)| dataset)
}

/// Shared parsing loop. In lenient mode the first malformed entry ends
/// the parse (truncation); in strict mode it is an error. Returns the
/// first unconsumed non-blank line, if any.
fn parse_prefix(text: &str, lenient: bool) -> Result<(Dataset, Option<String>), DatasetParseError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
    if header.trim_end() != DATASET_HEADER {
        return Err(DatasetParseError::BadHeader);
    }
    let acc_line = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
    let accelerator = acc_line
        .strip_prefix("accelerator ")
        .ok_or_else(|| DatasetParseError::BadLine {
            line: acc_line.to_string(),
        })?
        .to_string();
    let count_line = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
    let declared_count: usize = count_line
        .strip_prefix("count ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| DatasetParseError::BadLine {
            line: count_line.to_string(),
        })?;

    let mut entries = Vec::new();
    let leftover = loop {
        let Some(first) = lines.by_ref().find(|l| !l.trim().is_empty()) else {
            break None;
        };
        match parse_entry(first, &mut lines, entries.len()) {
            Ok(entry) => entries.push(entry),
            Err(e) if lenient => {
                let _ = e; // truncated tail: drop it
                break None;
            }
            Err(e) => return Err(e),
        }
    };
    Ok((
        Dataset {
            accelerator,
            declared_count,
            entries,
        },
        leftover,
    ))
}

/// Parses one entry whose `entry <i>` line has already been consumed as
/// `first`.
fn parse_entry<'a, I>(
    first: &'a str,
    lines: &mut I,
    index: usize,
) -> Result<DatasetEntry, DatasetParseError>
where
    I: Iterator<Item = &'a str>,
{
    let declared: usize = first
        .strip_prefix("entry ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| DatasetParseError::BadLine {
            line: first.to_string(),
        })?;
    if declared != index {
        return Err(DatasetParseError::BadLine {
            line: first.to_string(),
        });
    }
    let dfg = parse_dfg_lines(lines)?;
    let marker = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
    let outcome = match marker.trim_end() {
        "unmappable" => None,
        "labels" => Some(parse_labels_section(lines, &dfg, index)?),
        _ => {
            return Err(DatasetParseError::BadLine {
                line: marker.to_string(),
            })
        }
    };
    let trailer = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
    if trailer.trim_end() != "end entry" {
        return Err(DatasetParseError::BadLine {
            line: trailer.to_string(),
        });
    }
    Ok(DatasetEntry { dfg, outcome })
}

fn parse_labels_section<'a, I>(
    lines: &mut I,
    dfg: &Dfg,
    entry: usize,
) -> Result<GeneratedLabels, DatasetParseError>
where
    I: Iterator<Item = &'a str>,
{
    let best_ii = parse_keyed_int(lines.next(), "best_ii")? as u32;
    let mii = parse_keyed_int(lines.next(), "mii")? as u32;
    let candidate_count = parse_keyed_int(lines.next(), "candidates")?;
    let schedule_order = parse_f64_line(lines.next(), "schedule_order")?;
    let same_level_count = parse_keyed_int(lines.next(), "same_level")?;
    let mut same_level = Vec::with_capacity(same_level_count);
    for _ in 0..same_level_count {
        let line = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
        let bad = || DatasetParseError::BadLine {
            line: line.to_string(),
        };
        let parts: Vec<&str> = line
            .strip_prefix("sl ")
            .ok_or_else(bad)?
            .split(' ')
            .collect();
        if parts.len() != 3 {
            return Err(bad());
        }
        let a: usize = parts[0].parse().map_err(|_| bad())?;
        let b: usize = parts[1].parse().map_err(|_| bad())?;
        let v: f64 = parts[2].parse().map_err(|_| bad())?;
        same_level.push((NodeId::new(a), NodeId::new(b), v));
    }
    let spatial = parse_f64_line(lines.next(), "spatial")?;
    let temporal = parse_f64_line(lines.next(), "temporal")?;
    let trailer = lines.next().ok_or(DatasetParseError::UnexpectedEof)?;
    if trailer.trim_end() != "end labels" {
        return Err(DatasetParseError::BadLine {
            line: trailer.to_string(),
        });
    }
    let labels = GuidanceLabels {
        schedule_order,
        same_level,
        spatial,
        temporal,
    };
    if !labels.matches(dfg) {
        return Err(DatasetParseError::LabelShapeMismatch { entry });
    }
    Ok(GeneratedLabels {
        labels,
        best_ii,
        mii,
        candidate_count,
    })
}

fn parse_keyed_int(line: Option<&str>, key: &'static str) -> Result<usize, DatasetParseError> {
    let line = line.ok_or(DatasetParseError::UnexpectedEof)?;
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| DatasetParseError::BadLine {
            line: line.to_string(),
        })
}

fn parse_f64_line(line: Option<&str>, key: &'static str) -> Result<Vec<f64>, DatasetParseError> {
    let line = line.ok_or(DatasetParseError::UnexpectedEof)?;
    let rest = line
        .strip_prefix(key)
        .ok_or_else(|| DatasetParseError::BadLine {
            line: line.to_string(),
        })?;
    rest.split_whitespace()
        .map(|s| {
            s.parse().map_err(|_| DatasetParseError::BadLine {
                line: line.to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::polybench;

    #[test]
    fn push_produces_consistent_samples() {
        let dfg = polybench::kernel("gemm").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        let mut set = TrainingSet::new();
        set.push(&dfg, &labels);
        assert_eq!(set.node_graphs.len(), 1);
        assert!(set.node_graphs[0].is_consistent());
        assert_eq!(set.temporal.len(), dfg.edge_count());
        assert_eq!(set.spatial.len(), dfg.edge_count());
        assert_eq!(set.same_level.len(), labels.same_level.len());
        // Every spatial sample carries a non-empty neighbourhood (the edge
        // itself is always included).
        assert!(set.spatial.iter().all(|s| !s.neighbor_attrs.is_empty()));
    }

    #[test]
    fn multiple_dfgs_accumulate() {
        let mut set = TrainingSet::new();
        for name in ["gemm", "mvt", "atax"] {
            let dfg = polybench::kernel(name).unwrap();
            let labels = GuidanceLabels::initial(&dfg);
            set.push(&dfg, &labels);
        }
        assert_eq!(set.node_graphs.len(), 3);
        assert!(!set.is_empty());
        assert!(set.temporal.len() > 40);
    }

    #[test]
    #[should_panic(expected = "labels do not match")]
    fn mismatched_labels_panic() {
        let dfg = polybench::kernel("gemm").unwrap();
        let other = polybench::kernel("syr2k").unwrap();
        let labels = GuidanceLabels::initial(&other);
        TrainingSet::new().push(&dfg, &labels);
    }
}

#[cfg(test)]
mod format_tests {
    use super::*;
    use lisa_dfg::random::{generate_random_dfg, RandomDfgConfig};
    use lisa_rng::Rng;

    /// Synthetic labels with non-trivial float values, derived
    /// deterministically from a seed.
    fn fake_outcome(dfg: &Dfg, seed: u64) -> GeneratedLabels {
        let mut rng = Rng::seed_from_u64(seed);
        let mut labels = GuidanceLabels::initial(dfg);
        for v in labels
            .schedule_order
            .iter_mut()
            .chain(labels.spatial.iter_mut())
            .chain(labels.temporal.iter_mut())
        {
            *v = rng.gen_range(0.0..10.0);
        }
        for (_, _, v) in &mut labels.same_level {
            *v = rng.gen_range(0.0..5.0);
        }
        GeneratedLabels {
            labels,
            best_ii: rng.gen_range(1u32..8),
            mii: 1,
            candidate_count: rng.gen_range(1usize..5),
        }
    }

    fn sample_dataset(seed: u64, count: usize) -> Dataset {
        let cfg = RandomDfgConfig::default();
        let entries: Vec<DatasetEntry> = (0..count)
            .map(|i| {
                let dfg = generate_random_dfg(&cfg, seed + i as u64);
                let outcome = (i % 3 != 2).then(|| fake_outcome(&dfg, seed ^ i as u64));
                DatasetEntry { dfg, outcome }
            })
            .collect();
        Dataset {
            accelerator: "4x4".to_string(),
            declared_count: count,
            entries,
        }
    }

    #[test]
    fn dataset_round_trips() {
        let ds = sample_dataset(11, 5);
        let text = write_dataset(&ds);
        assert_eq!(parse_dataset(&text).unwrap(), ds);
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let ds = sample_dataset(23, 4);
        let text = write_dataset(&ds);
        let reparsed = parse_dataset(&text).unwrap();
        assert_eq!(write_dataset(&reparsed), text);
    }

    #[test]
    fn writer_matches_whole_document_serialization() {
        let ds = sample_dataset(5, 3);
        let dir = std::env::temp_dir().join("lisa_dataset_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.lisa-dataset");
        let mut writer = DatasetWriter::create(&path, &ds.accelerator, ds.declared_count).unwrap();
        for entry in &ds.entries {
            writer.append(entry).unwrap();
        }
        assert_eq!(writer.written(), 3);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, write_dataset(&ds));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_only_the_torn_tail_in_place() {
        let ds = sample_dataset(31, 4);
        let dir = std::env::temp_dir().join("lisa_dataset_resume_tail");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.lisa-dataset");

        // A killed writer leaves complete entries plus a torn last block.
        let mut writer = DatasetWriter::create(&path, &ds.accelerator, ds.declared_count).unwrap();
        for entry in &ds.entries[..2] {
            writer.append(entry).unwrap();
        }
        drop(writer);
        let mut torn = String::new();
        write_entry_into(&mut torn, 2, &ds.entries[2]);
        let torn = &torn[..torn.len() / 2];
        let complete = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{complete}{torn}")).unwrap();

        let recovered = parse_dataset_partial(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(recovered.entries.len(), 2);
        let mut writer = DatasetWriter::resume(
            &path,
            &ds.accelerator,
            ds.declared_count,
            &recovered.entries,
        )
        .unwrap();
        // The torn tail is gone; the complete prefix survived in place
        // and was never routed through a temp file.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), complete);
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(writer.written(), 2);
        for entry in &ds.entries[2..] {
            writer.append(entry).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), write_dataset(&ds));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replaces_a_disagreeing_file_atomically() {
        let ds = sample_dataset(37, 3);
        let dir = std::env::temp_dir().join("lisa_dataset_resume_rewrite");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.lisa-dataset");
        std::fs::write(&path, "lisa-dataset v1\naccelerator 4x4\ncount 99\n").unwrap();

        let mut writer =
            DatasetWriter::resume(&path, &ds.accelerator, ds.declared_count, &ds.entries[..1])
                .unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        for entry in &ds.entries[1..] {
            writer.append(entry).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), write_dataset(&ds));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_creates_a_missing_file() {
        let ds = sample_dataset(41, 2);
        let dir = std::env::temp_dir().join("lisa_dataset_resume_fresh");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.lisa-dataset");
        let mut writer =
            DatasetWriter::resume(&path, &ds.accelerator, ds.declared_count, &[]).unwrap();
        assert_eq!(writer.written(), 0);
        for entry in &ds.entries {
            writer.append(entry).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), write_dataset(&ds));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_parse_rejects_truncation() {
        let ds = sample_dataset(7, 3);
        let text = write_dataset(&ds);
        let cut = &text[..text.len() * 2 / 3];
        let cut = &cut[..cut.rfind('\n').unwrap() + 1];
        assert!(parse_dataset(cut).is_err());
    }

    #[test]
    fn partial_parse_recovers_complete_prefix() {
        let ds = sample_dataset(7, 4);
        let text = write_dataset(&ds);
        // Cut in the middle of the last entry.
        let last_entry = text.rfind("entry 3").unwrap();
        let cut = &text[..last_entry + 40];
        let recovered = parse_dataset_partial(cut).unwrap();
        assert!(!recovered.is_complete());
        assert_eq!(recovered.declared_count, 4);
        assert_eq!(recovered.entries, ds.entries[..3]);
    }

    #[test]
    fn partial_parse_of_header_only_is_empty() {
        let text = write_dataset_header("4x4", 9);
        let ds = parse_dataset_partial(&text).unwrap();
        assert_eq!(ds.declared_count, 9);
        assert!(ds.entries.is_empty());
    }

    #[test]
    fn bad_header_rejected_even_leniently() {
        assert_eq!(
            parse_dataset_partial("lisa-dataset v2\n"),
            Err(DatasetParseError::BadHeader)
        );
    }

    #[test]
    fn label_shape_mismatch_rejected() {
        let ds = sample_dataset(3, 1);
        let text = write_dataset(&ds);
        // Drop one schedule-order value: the vector no longer matches the
        // DFG's node count.
        let line_start = text.find("schedule_order ").unwrap();
        let line_end = text[line_start..].find('\n').unwrap() + line_start;
        let line = &text[line_start..line_end];
        let shortened = &line[..line.rfind(' ').unwrap()];
        let mutated = text.replace(line, shortened);
        assert!(matches!(
            parse_dataset(&mutated),
            Err(DatasetParseError::LabelShapeMismatch { entry: 0 })
        ));
    }

    #[test]
    fn count_mismatch_rejected_strictly() {
        let ds = sample_dataset(9, 2);
        let text = write_dataset(&ds).replace("count 2", "count 5");
        assert_eq!(
            parse_dataset(&text),
            Err(DatasetParseError::CountMismatch {
                declared: 5,
                found: 2
            })
        );
    }

    #[test]
    fn errors_display() {
        let err = DatasetParseError::LabelShapeMismatch { entry: 4 };
        assert!(err.to_string().contains("entry 4"));
    }

    lisa_rng::props! {
        cases = 24;

        /// Random datasets survive a full write/parse round trip, and
        /// re-serializing reproduces the exact bytes.
        fn datasets_round_trip(seed in 0u64..1_000_000, count in 1usize..5) {
            let ds = sample_dataset(seed, count);
            let text = write_dataset(&ds);
            let parsed = parse_dataset(&text).unwrap();
            assert_eq!(parsed, ds);
            assert_eq!(write_dataset(&parsed), text);
        }

        /// Cutting the document at any line boundary leaves a parseable
        /// prefix whose entries match the originals exactly.
        fn truncation_recovers_a_prefix(seed in 0u64..100_000, frac in 0.1f64..1.0) {
            let ds = sample_dataset(seed, 4);
            let text = write_dataset(&ds);
            let cut_at = ((text.len() as f64) * frac) as usize;
            let prefix = &text[..cut_at];
            let prefix = &prefix[..prefix.rfind('\n').map_or(0, |i| i + 1)];
            if prefix.is_empty() || parse_dataset_partial(prefix).is_err() {
                // Header itself truncated: nothing to recover.
                return;
            }
            let recovered = parse_dataset_partial(prefix).unwrap();
            assert!(recovered.entries.len() <= ds.entries.len());
            assert_eq!(recovered.entries, ds.entries[..recovered.entries.len()]);
        }
    }
}

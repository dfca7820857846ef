//! The `lisa-request v1` mapping-request format and its content hash.
//!
//! A serving daemon needs a *canonical* request representation: two
//! requests that mean the same mapping problem must hash to the same
//! cache key. The workspace's byte-exact text formats make this cheap —
//! a request is parsed into typed fields and re-serialized through the
//! same writers the checkpoint formats use, so formatting noise (CRLF,
//! trailing blank lines) never splits the cache.
//!
//! ```text
//! lisa-request v1
//! accelerator 4x4
//! seed 2022
//! max_ii 8
//! strategy sa
//! lisa-dfg v1
//! ...
//! end dfg
//! ```
//!
//! [`MapRequest::cache_key`] is the FNV-1a 64-bit hash of the canonical
//! text. The mapper itself is a deterministic pure function of
//! `(dfg, accelerator, model, seed)`, which is what makes
//! content-addressed response caching sound; the serving daemon's key
//! therefore also hashes the resident model's digest and a mapper-format
//! version, so equal keys imply byte-identical responses.

use std::fmt;

use lisa_dfg::text::{parse_dfg_lines, write_dfg_into, ParseDfgError};
use lisa_dfg::Dfg;
use lisa_mapper::StrategySpec;

/// Header line opening every serialized request.
pub const REQUEST_HEADER: &str = "lisa-request v1";

/// A canonicalized mapping request: everything the deterministic mapper
/// needs, and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRequest {
    /// Catalog key of the target fabric (`Accelerator::standard`).
    pub accelerator: String,
    /// Annealer seed; part of the determinism contract, so part of the key.
    pub seed: u64,
    /// II-search cap.
    pub max_ii: u32,
    /// Lanes raced for each II. Part of the determinism contract (it
    /// selects which search trajectories run), so part of the key.
    /// Documents without a `strategy` line parse as the default (`sa`),
    /// and `canonical_text` always writes the line, so legacy documents
    /// share the default's cache key.
    pub strategy: StrategySpec,
    /// The kernel to map.
    pub dfg: Dfg,
}

/// Why a `lisa-request v1` document failed to parse.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RequestParseError {
    /// The first line was not `lisa-request v1`.
    BadHeader,
    /// A field line did not match its expected shape.
    BadLine {
        /// The offending line, verbatim.
        line: String,
    },
    /// The document ended before the embedded DFG.
    UnexpectedEof,
    /// Non-blank content followed the DFG block.
    TrailingContent {
        /// The first trailing line.
        line: String,
    },
    /// The `strategy` line named an unknown lane mix.
    Strategy(lisa_mapper::ParseStrategyError),
    /// The embedded `lisa-dfg v1` block was malformed.
    Dfg(ParseDfgError),
}

impl fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestParseError::BadHeader => write!(f, "expected `{REQUEST_HEADER}` header"),
            RequestParseError::BadLine { line } => write!(f, "malformed request line `{line}`"),
            RequestParseError::UnexpectedEof => write!(f, "request ended unexpectedly"),
            RequestParseError::TrailingContent { line } => {
                write!(f, "trailing content after request: `{line}`")
            }
            RequestParseError::Strategy(e) => write!(f, "strategy field: {e}"),
            RequestParseError::Dfg(e) => write!(f, "embedded DFG: {e}"),
        }
    }
}

impl std::error::Error for RequestParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestParseError::Strategy(e) => Some(e),
            RequestParseError::Dfg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseDfgError> for RequestParseError {
    fn from(e: ParseDfgError) -> Self {
        RequestParseError::Dfg(e)
    }
}

impl MapRequest {
    /// Serializes the request in canonical form: fixed field order, one
    /// trailing newline, floats (inside the DFG block) in
    /// shortest-round-trip form. `parse` ∘ `canonical_text` is the
    /// identity, and `canonical_text` ∘ `parse` is idempotent — the
    /// properties the cache key relies on.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        out.push_str(REQUEST_HEADER);
        out.push('\n');
        out.push_str(&format!("accelerator {}\n", self.accelerator));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("max_ii {}\n", self.max_ii));
        out.push_str(&format!("strategy {}\n", self.strategy));
        write_dfg_into(&mut out, &self.dfg);
        out
    }

    /// Parses a request document. Lines are CRLF-tolerant and trailing
    /// blank lines are ignored, so transport framing variations
    /// canonicalize away.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestParseError`] describing the first problem.
    pub fn parse(text: &str) -> Result<MapRequest, RequestParseError> {
        let mut lines = text.lines().map(|l| l.trim_end_matches('\r'));
        let header = lines.next().ok_or(RequestParseError::UnexpectedEof)?;
        if header.trim_end() != REQUEST_HEADER {
            return Err(RequestParseError::BadHeader);
        }
        let accelerator = field(&mut lines, "accelerator ")?.to_string();
        let seed = field(&mut lines, "seed ")?;
        let seed: u64 = seed.parse().map_err(|_| RequestParseError::BadLine {
            line: format!("seed {seed}"),
        })?;
        let max_ii = field(&mut lines, "max_ii ")?;
        let max_ii: u32 = max_ii.parse().map_err(|_| RequestParseError::BadLine {
            line: format!("max_ii {max_ii}"),
        })?;
        // The strategy line is optional for back-compat: pre-strategy
        // documents parse as the default lane mix, and because
        // `canonical_text` always writes the line, they share the
        // explicit default's cache key.
        let mut lines = lines.peekable();
        let strategy = match lines.peek().and_then(|l| l.strip_prefix("strategy ")) {
            Some(spec) => {
                let spec = StrategySpec::parse(spec).map_err(RequestParseError::Strategy)?;
                lines.next();
                spec
            }
            None => StrategySpec::default(),
        };
        let dfg = parse_dfg_lines(&mut lines)?;
        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(RequestParseError::TrailingContent {
                line: extra.to_string(),
            });
        }
        Ok(MapRequest {
            accelerator,
            seed,
            max_ii,
            strategy,
            dfg,
        })
    }

    /// FNV-1a 64 over the canonical text: the request's share of a
    /// content-addressed cache key.
    pub fn cache_key(&self) -> u64 {
        fnv1a64(self.canonical_text().as_bytes())
    }
}

fn field<'a, I>(lines: &mut I, prefix: &str) -> Result<&'a str, RequestParseError>
where
    I: Iterator<Item = &'a str>,
{
    let line = lines.next().ok_or(RequestParseError::UnexpectedEof)?;
    line.strip_prefix(prefix)
        .ok_or_else(|| RequestParseError::BadLine {
            line: line.to_string(),
        })
}

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms —
/// exactly what a content-addressed cache filename needs. (Not
/// collision-resistant against adversaries; the daemon trusts its
/// clients.)
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::polybench;

    fn sample() -> MapRequest {
        MapRequest {
            accelerator: "4x4".to_string(),
            seed: 2022,
            max_ii: 8,
            strategy: StrategySpec::default(),
            dfg: polybench::kernel("gemm").unwrap(),
        }
    }

    #[test]
    fn canonical_text_round_trips() {
        let req = sample();
        let text = req.canonical_text();
        let parsed = MapRequest::parse(&text).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(
            parsed.canonical_text(),
            text,
            "canonical form is a fixpoint"
        );
    }

    #[test]
    fn formatting_noise_canonicalizes_away() {
        let req = sample();
        let noisy = format!("{}\r\n\n\n", req.canonical_text().replace('\n', "\r\n"));
        let parsed = MapRequest::parse(&noisy).unwrap();
        assert_eq!(parsed.cache_key(), req.cache_key());
    }

    #[test]
    fn key_separates_every_field() {
        let base = sample();
        let mut seed = base.clone();
        seed.seed = 7;
        let mut cap = base.clone();
        cap.max_ii = 4;
        let mut acc = base.clone();
        acc.accelerator = "8x8".to_string();
        let mut dfg = base.clone();
        dfg.dfg = polybench::kernel("mvt").unwrap();
        let mut strat = base.clone();
        strat.strategy = StrategySpec::parse("mixed").unwrap();
        let keys = [
            base.cache_key(),
            seed.cache_key(),
            cap.cache_key(),
            acc.cache_key(),
            dfg.cache_key(),
            strat.cache_key(),
        ];
        let mut unique = keys.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "field change did not change key");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(matches!(
            MapRequest::parse("nope"),
            Err(RequestParseError::BadHeader)
        ));
        assert!(matches!(
            MapRequest::parse("lisa-request v1\nseed 1\n"),
            Err(RequestParseError::BadLine { .. })
        ));
        let mut text = sample().canonical_text();
        text.push_str("junk\n");
        assert!(matches!(
            MapRequest::parse(&text),
            Err(RequestParseError::TrailingContent { .. })
        ));
        assert!(matches!(
            MapRequest::parse("lisa-request v1\naccelerator 4x4\nseed 1\nmax_ii 8\n"),
            Err(RequestParseError::Dfg(_))
        ));
        assert!(matches!(
            MapRequest::parse(
                "lisa-request v1\naccelerator 4x4\nseed 1\nmax_ii 8\nstrategy warp\n"
            ),
            Err(RequestParseError::Strategy(_))
        ));
    }

    #[test]
    fn strategy_line_is_optional_and_aliases_share_a_key() {
        let base = sample();
        // A pre-strategy document (no `strategy` line) parses as the
        // default and lands on the same key as the explicit default.
        let legacy = base.canonical_text().replace("strategy sa\n", "");
        let parsed = MapRequest::parse(&legacy).unwrap();
        assert_eq!(parsed, base);
        assert_eq!(parsed.cache_key(), base.cache_key());
        // Alias spellings of the same mix canonicalize to one key.
        let mut mixed = base.clone();
        mixed.strategy = StrategySpec::parse("mixed").unwrap();
        let mut listed = base.clone();
        listed.strategy = StrategySpec::parse("constructive,sa").unwrap();
        assert_eq!(mixed.cache_key(), listed.cache_key());
        assert_ne!(mixed.cache_key(), base.cache_key());
    }
}

//! Wire framing and the `lisa-response v1` document.
//!
//! # Framing
//!
//! Every message — in both directions — is one frame: a 4-byte
//! big-endian length followed by that many bytes of UTF-8 payload.
//! Client payloads are either a `lisa-request v1` document, the word
//! `stats`, or the word `shutdown`; the daemon answers each frame with
//! exactly one response frame.
//!
//! A frame leaves in one write. Written as a 4-byte length and then the
//! payload, Nagle's algorithm holds the payload on a kept TCP connection
//! until the peer's delayed ACK of the length arrives, about 43 ms per
//! exchange on Linux.
//!
//! # Response documents
//!
//! ```text
//! lisa-response v1
//! status ok            (or unmappable | error | overloaded)
//! accelerator 4x4
//! kernel gemm
//! seed 2022
//! max_ii 8
//! ii 4
//! routing_cells 3
//! ops 11
//! attempts 3
//! mapping
//! <deterministic grid render>
//! end mapping
//! ```
//!
//! Response bodies are deliberately wall-clock-free: the body of an `ok`
//! or `unmappable` response is a pure function of the request, so a
//! cached response is byte-identical to a freshly computed one and the
//! cache is invisible to clients except through latency and the `stats`
//! counters. Timing lives in telemetry (`lisa-events`), not in the body.

use std::io::{self, Read, Write};

use lisa_core::MapRequest;
use lisa_mapper::{display, Mapping, MappingOutcome};

use crate::error::ServeError;

/// Header line of every response document.
pub const RESPONSE_HEADER: &str = "lisa-response v1";
/// Header line of the `stats` answer.
pub const STATS_HEADER: &str = "lisa-serve-stats v1";
/// Upper bound on a frame payload; larger frames are a protocol error.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Payload bytes reserved before any arrive. A typical frame fits, so it
/// is read in one call; a longer one grows the buffer as it arrives.
const FIRST_READ: usize = 64 * 1024;

/// Writes one length-prefixed frame with a single `write_all`.
///
/// The length and the payload go out together: a separate 4-byte write
/// makes Nagle's algorithm hold the payload until the peer's delayed
/// ACK, about 43 ms per exchange on a kept Linux TCP connection.
///
/// # Errors
///
/// Propagates write failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// The payload buffer starts at most 64 KiB long and grows as bytes
/// arrive, so a peer that declares a large frame and sends little holds
/// little memory.
///
/// # Errors
///
/// Propagates read failures; a truncated frame or an oversized length is
/// an error, not EOF.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} limit"),
        ));
    }
    let mut payload = Vec::with_capacity(FIRST_READ.min(len as usize));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ended after {} of {len} bytes", payload.len()),
        ));
    }
    Ok(Some(payload))
}

/// Renders a successful mapping response.
///
/// # Errors
///
/// [`ServeError::MissingIi`] when the outcome carries no initiation
/// interval — an internal inconsistency the caller turns into a
/// `status error` frame instead of a panic (PANIC001).
pub fn render_ok(
    req: &MapRequest,
    outcome: &MappingOutcome,
    mapping: &Mapping<'_>,
) -> Result<String, ServeError> {
    let ii = outcome.ii.ok_or(ServeError::MissingIi)?;
    let mut out = header(req, "ok");
    out.push_str(&format!("ii {ii}\n"));
    out.push_str(&format!("routing_cells {}\n", outcome.routing_cells));
    out.push_str(&format!("ops {}\n", outcome.ops));
    out.push_str(&format!("attempts {}\n", outcome.attempts));
    out.push_str("mapping\n");
    out.push_str(&display::render(mapping));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("end mapping\n");
    Ok(out)
}

/// Renders the response for a request whose II search exhausted the cap.
pub fn render_unmappable(req: &MapRequest, outcome: &MappingOutcome) -> String {
    let mut out = header(req, "unmappable");
    out.push_str(&format!("attempts {}\n", outcome.attempts));
    out
}

/// Renders an error response. The reason is flattened to a single line.
pub fn render_error(reason: &str) -> String {
    format!(
        "{RESPONSE_HEADER}\nstatus error\nreason {}\n",
        reason.replace(['\n', '\r'], " ")
    )
}

/// Renders the explicit-overload response (the backpressure contract:
/// reject loudly instead of queueing without bound).
pub fn render_overloaded() -> String {
    format!("{RESPONSE_HEADER}\nstatus overloaded\n")
}

fn header(req: &MapRequest, status: &str) -> String {
    format!(
        "{RESPONSE_HEADER}\nstatus {status}\naccelerator {}\nkernel {}\nseed {}\nmax_ii {}\n",
        req.accelerator,
        req.dfg.name(),
        req.seed,
        req.max_ii
    )
}

/// The `status` line value of a response document, if well-formed.
pub fn response_status(body: &str) -> Option<&str> {
    let mut lines = body.lines();
    if lines.next()?.trim_end() != RESPONSE_HEADER {
        return None;
    }
    lines.next()?.strip_prefix("status ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Accepts every byte and records the size of each `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for len in [0, 5, 100 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, [4 + len], "{len}-byte payload");
            let mut r = io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
            assert!(read_frame(&mut r).unwrap().is_none());
        }
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    /// Serves bytes from a cursor and records the largest buffer any
    /// `read` call is given.
    struct LargestReadBuffer {
        data: io::Cursor<Vec<u8>>,
        largest: usize,
    }

    impl Read for LargestReadBuffer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn payload_buffer_grows_as_bytes_arrive() {
        let mut bytes = MAX_FRAME.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"hello");
        let mut r = LargestReadBuffer {
            data: io::Cursor::new(bytes),
            largest: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.largest <= 64 * 1024,
            "a read got a {}-byte buffer for 5 bytes of payload",
            r.largest
        );
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn error_reasons_stay_single_line() {
        let body = render_error("line one\nline two");
        assert_eq!(body.lines().count(), 3);
        assert_eq!(response_status(&body), Some("error"));
        assert_eq!(response_status(&render_overloaded()), Some("overloaded"));
        assert_eq!(response_status("garbage"), None);
    }
}

//! Transport loops: one framed request/response exchange at a time per
//! connection, over TCP (one thread per connection) or stdio.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::engine::ServeEngine;
use crate::protocol::{read_frame, render_error, write_frame};

/// Why a connection loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The peer closed the stream.
    Eof,
    /// The peer sent the `shutdown` command; the daemon should exit.
    Shutdown,
}

/// Serves framed commands from `r`, answering each on `w`, until EOF or
/// `shutdown`.
///
/// Commands: a `lisa-request v1` document, `stats`, or `shutdown`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn serve_connection(
    engine: &ServeEngine,
    r: &mut impl Read,
    w: &mut impl Write,
) -> io::Result<Served> {
    while let Some(frame) = read_frame(r)? {
        let Ok(text) = String::from_utf8(frame) else {
            write_frame(w, render_error("payload is not UTF-8").as_bytes())?;
            continue;
        };
        match text.trim() {
            "stats" => write_frame(w, engine.stats_text().as_bytes())?,
            "shutdown" => {
                write_frame(w, b"ok\n")?;
                return Ok(Served::Shutdown);
            }
            _ => {
                let (body, _) = engine.handle(&text);
                write_frame(w, body.as_bytes())?;
            }
        }
    }
    Ok(Served::Eof)
}

/// Accept loop: one thread per connection, all sharing the engine.
/// Returns when a connection issues `shutdown`.
///
/// # Errors
///
/// Propagates accept failures; per-connection I/O errors only end that
/// connection.
pub fn serve_tcp(engine: Arc<ServeEngine>, listener: TcpListener) -> io::Result<()> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let local = listener.local_addr()?;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = stream?;
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let engine = engine.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            // `&TcpStream` reads and writes, so one descriptor serves both.
            if let Ok(Served::Shutdown) = serve_connection(&engine, &mut &stream, &mut &stream) {
                shutdown.store(true, Ordering::Release);
                // Unblock the accept loop with a no-op connection.
                let _ = TcpStream::connect(local);
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::protocol::STATS_HEADER;
    use lisa_core::ModelRegistry;
    use lisa_events::EventSink;

    fn engine() -> ServeEngine {
        ServeEngine::new(
            ModelRegistry::new(),
            ServeConfig::default(),
            EventSink::null(),
        )
        .unwrap()
    }

    fn roundtrip(commands: &[&str]) -> (Vec<String>, Served) {
        let mut input = Vec::new();
        for c in commands {
            write_frame(&mut input, c.as_bytes()).unwrap();
        }
        let mut output = Vec::new();
        let served = serve_connection(&engine(), &mut io::Cursor::new(input), &mut output).unwrap();
        let mut frames = Vec::new();
        let mut r = io::Cursor::new(output);
        while let Some(f) = read_frame(&mut r).unwrap() {
            frames.push(String::from_utf8(f).unwrap());
        }
        (frames, served)
    }

    #[test]
    fn stats_and_shutdown_commands() {
        let (frames, served) = roundtrip(&["stats", "shutdown", "stats"]);
        assert_eq!(served, Served::Shutdown);
        // The frame after shutdown is never processed.
        assert_eq!(frames.len(), 2);
        assert!(frames[0].starts_with(STATS_HEADER));
        assert_eq!(frames[1], "ok\n");
    }

    #[test]
    fn eof_ends_the_session_cleanly() {
        let (frames, served) = roundtrip(&["garbage request"]);
        assert_eq!(served, Served::Eof);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].contains("status error"));
    }

    #[test]
    fn garbage_frames_get_error_responses_and_the_daemon_keeps_serving() {
        // The availability contract (PANIC001): a malformed frame — not
        // even UTF-8, or UTF-8 that is not a request — answers `status
        // error` and the same connection keeps being served.
        let mut input = Vec::new();
        write_frame(&mut input, &[0xff, 0xfe, 0x80, 0x00]).unwrap();
        write_frame(&mut input, b"lisa-request v1\nbut torn").unwrap();
        write_frame(&mut input, b"stats").unwrap();
        let mut output = Vec::new();
        let served = serve_connection(&engine(), &mut io::Cursor::new(input), &mut output).unwrap();
        assert_eq!(served, Served::Eof);

        let mut frames = Vec::new();
        let mut r = io::Cursor::new(output);
        while let Some(f) = read_frame(&mut r).unwrap() {
            frames.push(String::from_utf8(f).unwrap());
        }
        assert_eq!(frames.len(), 3, "{frames:?}");
        assert!(frames[0].contains("status error"), "{}", frames[0]);
        assert!(frames[0].contains("not UTF-8"), "{}", frames[0]);
        assert!(frames[1].contains("status error"), "{}", frames[1]);
        assert!(
            frames[2].starts_with(STATS_HEADER),
            "the daemon still answers after garbage: {}",
            frames[2]
        );
        // Both failures were counted as errors, not crashes.
        assert!(frames[2].contains("errors 1"), "{}", frames[2]);
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_tcp(Arc::new(engine()), listener));

        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, b"stats").unwrap();
        let stats = read_frame(&mut conn).unwrap().unwrap();
        assert!(String::from_utf8(stats).unwrap().starts_with(STATS_HEADER));
        write_frame(&mut conn, b"shutdown").unwrap();
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"ok\n");
        drop(conn);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn kept_connection_exchanges_do_not_wait_for_delayed_acks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_tcp(Arc::new(engine()), listener));

        // Nagle stays on, as `lisa-serve client` leaves it.
        let mut conn = TcpStream::connect(addr).unwrap();
        let started = std::time::Instant::now();
        for _ in 0..50 {
            write_frame(&mut conn, b"stats").unwrap();
            let stats = read_frame(&mut conn).unwrap().unwrap();
            assert!(stats.starts_with(STATS_HEADER.as_bytes()));
        }
        let elapsed = started.elapsed();
        write_frame(&mut conn, b"shutdown").unwrap();
        assert_eq!(read_frame(&mut conn).unwrap().unwrap(), b"ok\n");
        drop(conn);
        server.join().unwrap().unwrap();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "50 kept-connection exchanges took {elapsed:?}"
        );
    }
}

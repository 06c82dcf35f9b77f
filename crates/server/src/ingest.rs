//! The ingest front end: one chunked reader over the event log.
//!
//! `--replay` pumps a [`LogReader`] on the calling thread up to the log
//! length seen at open, then hands the same reader — partial line
//! included — to the `st-ingest` tail thread ([`ingest_loop`]). Each pump
//! is one read of at most [`CHUNK`] bytes:
//!
//! * [`LineBuffer::read_from`] reads straight into the buffer after the
//!   carried partial line, frames the complete lines with [`frame_lines`]
//!   — a forward scan over borrowed slices that resumes the newline search
//!   where the previous read stopped, so every byte is scanned once
//!   however the log is cut into reads — and compacts the buffer once,
//!   moving only the new trailing partial line to its front;
//! * the read's events are applied in one `apply_batch` call, and its bad
//!   lines are counted and logged: invalid UTF-8 under
//!   `server_events_invalid_utf8_total`, parse failures (including JSON
//!   nested deeper than the parser's 128-level cap) under
//!   `server_events_malformed_total`;
//! * a line longer than [`MAX_LINE`] (1 MiB) is malformed without being
//!   parsed. Once the carried partial line passes the cap it is dropped,
//!   counted, and the bytes up to its newline are dropped as they arrive,
//!   so the buffer never holds more than `MAX_LINE + CHUNK` bytes.
//!
//! Rotation: at end of file the tail checks whether the log is now shorter
//! than its read offset (copy-truncate) or its path names a different file
//! (rename). Either way it counts `server_log_reopens_total`, logs a
//! warning, drops the buffered partial line and reads the path again from
//! offset 0. A truncated log that has already grown past the old offset
//! when the tail looks is indistinguishable from an appended one.

use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::event::{parse_event, ServerEvent};
use crate::ServerState;

/// Bytes asked for per read.
const CHUNK: usize = 64 * 1024;

/// Longest line framed, in bytes before the newline. A longer line is
/// counted as malformed and skipped, so a log line that never ends cannot
/// grow the buffer past `MAX_LINE + CHUNK`.
const MAX_LINE: usize = 1024 * 1024;

/// The malformed-line reason of a line longer than [`MAX_LINE`].
fn too_long() -> String {
    format!("line longer than {MAX_LINE} bytes")
}

/// What framing produced, in log order: the parsed events, the reason each
/// malformed line failed to parse, and the byte length of each line that
/// was not valid UTF-8. Blank and whitespace-only lines produce nothing.
#[derive(Debug, Default, PartialEq)]
struct Framed {
    events: Vec<ServerEvent>,
    malformed: Vec<String>,
    invalid_utf8: Vec<usize>,
}

/// Frame every complete `\n`-terminated line of `bytes` into `out` and
/// return how many bytes those lines span; the bytes after them are a
/// partial line. The caller guarantees `bytes[..scanned]` holds no
/// newline, so the search starts there. Lines are trimmed (which also
/// strips a `\r` before the newline) before they are parsed; a line
/// longer than [`MAX_LINE`] is malformed unparsed.
fn frame_lines(bytes: &[u8], scanned: usize, out: &mut Framed) -> usize {
    let mut start = 0;
    let mut from = scanned;
    while let Some(at) = bytes[from..].iter().position(|&b| b == b'\n') {
        let end = from + at;
        if end - start > MAX_LINE {
            out.malformed.push(too_long());
            start = end + 1;
            from = start;
            continue;
        }
        match std::str::from_utf8(&bytes[start..end]) {
            Err(_) => out.invalid_utf8.push(end - start),
            Ok(line) => {
                let line = line.trim();
                if !line.is_empty() {
                    match parse_event(line) {
                        Ok(event) => out.events.push(event),
                        Err(reason) => out.malformed.push(reason),
                    }
                }
            }
        }
        start = end + 1;
        from = start;
    }
    start
}

/// The framing state one reader carries between reads: the trailing
/// partial line of the previous reads, which holds no newline.
#[derive(Debug, Default)]
struct LineBuffer {
    /// `buf[..len]` is the partial line. The bytes after it are space for
    /// the next read, kept initialised so a read need not zero a chunk.
    buf: Vec<u8>,
    len: usize,
    /// The partial line grew past [`MAX_LINE`]: it was dropped and counted,
    /// and the bytes up to and including its newline are dropped as they
    /// arrive.
    skipping: bool,
}

impl LineBuffer {
    /// Read once from `src`, at most `max` bytes, frame every line the read
    /// completed into `out`, and keep the new partial line. Returns the
    /// bytes read (0 at end of input).
    fn read_from(
        &mut self,
        src: &mut impl Read,
        max: usize,
        out: &mut Framed,
    ) -> io::Result<usize> {
        let carried = self.len;
        if self.buf.len() < carried + max {
            self.buf.resize(carried + max, 0);
        }
        let n = src.read(&mut self.buf[carried..carried + max])?;
        self.len = carried + n;
        // While skipping nothing is carried, so framing starts after the
        // over-long line's newline with nothing yet scanned.
        let mut start = 0;
        if self.skipping {
            match self.buf[..self.len].iter().position(|&b| b == b'\n') {
                Some(at) => {
                    start = at + 1;
                    self.skipping = false;
                }
                None => {
                    self.len = 0;
                    return Ok(n);
                }
            }
        }
        let consumed = start + frame_lines(&self.buf[start..self.len], carried, out);
        if consumed > 0 {
            self.buf.copy_within(consumed..self.len, 0);
            self.len -= consumed;
        }
        if self.len > MAX_LINE {
            out.malformed.push(too_long());
            self.len = 0;
            self.skipping = true;
        }
        Ok(n)
    }

    /// The buffered partial line.
    fn partial(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// The event log open for reading, with the framing state carried between
/// reads.
pub(crate) struct LogReader {
    path: PathBuf,
    file: File,
    /// `(device, inode)` of `file`, to notice the path naming another file.
    id: (u64, u64),
    /// Bytes read from `file` so far.
    offset: u64,
    lines: LineBuffer,
    /// Reused by every read; emptied once its contents are applied.
    framed: Framed,
}

impl LogReader {
    /// Open the log at `path` for reading from offset 0.
    pub(crate) fn open(path: &Path) -> io::Result<LogReader> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        Ok(LogReader {
            path: path.to_owned(),
            file,
            id: (meta.dev(), meta.ino()),
            offset: 0,
            lines: LineBuffer::default(),
            framed: Framed::default(),
        })
    }

    /// One read, ending at offset `end` at the latest: frame the complete
    /// lines, count and log the bad ones, and apply the events in one
    /// batch. Returns the bytes read (0 at end of file or at `end`).
    fn pump(&mut self, state: &ServerState, end: u64) -> io::Result<usize> {
        let left = usize::try_from(end.saturating_sub(self.offset)).unwrap_or(usize::MAX);
        let n = self
            .lines
            .read_from(&mut self.file, left.min(CHUNK), &mut self.framed)?;
        self.offset += n as u64;
        for reason in self.framed.malformed.drain(..) {
            state.events_malformed.inc();
            state.log.warn(
                "ingest",
                "skipped malformed event",
                &[("reason", reason.into())],
            );
        }
        for bytes in self.framed.invalid_utf8.drain(..) {
            state.events_invalid_utf8.inc();
            state.log.warn(
                "ingest",
                "skipped non-UTF-8 log line",
                &[("bytes", bytes.into())],
            );
        }
        state.apply_batch(&self.framed.events);
        self.framed.events.clear();
        Ok(n)
    }

    /// `--replay`: pump on the calling thread up to the log length seen
    /// now, so a writer that keeps appending cannot hold the daemon back
    /// from binding. A trailing partial line stays buffered for the tail.
    pub(crate) fn replay(&mut self, state: &ServerState) -> io::Result<()> {
        let backlog = self.file.metadata()?.len();
        while self.offset < backlog && self.pump(state, backlog)? > 0 {}
        Ok(())
    }

    /// At end of file: if the log was truncated below the read offset or
    /// its path now names another file, reopen the path from offset 0,
    /// dropping the buffered partial line. Returns whether it reopened.
    /// A path that does not exist (mid-rename) keeps the current file.
    fn reopen_if_rotated(&mut self, state: &ServerState) -> bool {
        let Ok(meta) = std::fs::metadata(&self.path) else {
            return false;
        };
        let cause = if (meta.dev(), meta.ino()) != self.id {
            "replaced"
        } else if meta.len() < self.offset {
            "truncated"
        } else {
            return false;
        };
        let reopened = match LogReader::open(&self.path) {
            Ok(reader) => reader,
            Err(e) => {
                state.log.error(
                    "ingest",
                    "cannot reopen rotated event log",
                    &[("error", e.to_string().into())],
                );
                return false;
            }
        };
        state.log_reopens.inc();
        state.log.warn(
            "ingest",
            "event log rotated, reading it from the start",
            &[
                ("cause", cause.into()),
                ("offset", self.offset.into()),
                ("dropped_partial_bytes", self.lines.partial().len().into()),
            ],
        );
        *self = reopened;
        true
    }
}

/// The `st-ingest` thread: pump the reader until shutdown is signalled,
/// then drain whatever the log still holds before returning.
pub(crate) fn ingest_loop(state: Arc<ServerState>, mut reader: LogReader) {
    loop {
        match reader.pump(&state, u64::MAX) {
            Ok(0) => {
                if reader.reopen_if_rotated(&state) {
                    continue;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return; // fully drained
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(_) => {}
            Err(e) => {
                state.log.error(
                    "ingest",
                    "ingest read error",
                    &[("error", e.to_string().into())],
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{render_event, RelKind};
    use proptest::prelude::*;

    /// One log line of each kind the framing must keep apart, as raw
    /// bytes including its terminator.
    fn line(kind: u8, k: u32) -> Vec<u8> {
        match kind % 8 {
            0 => format!(
                "{}\n",
                render_event(&ServerEvent::EdgeAdd {
                    a: k,
                    b: k + 1,
                    rel: RelKind::Kin,
                })
            )
            .into_bytes(),
            1 => format!(
                "{}\r\n",
                render_event(&ServerEvent::Rating {
                    rater: k,
                    ratee: k + 2,
                    value: 0.5,
                    interest: Some(3),
                })
            )
            .into_bytes(),
            2 => format!("not json {k}\n").into_bytes(),
            3 => format!("{{\"type\":\"warp\",\"x\":{k}}}\n").into_bytes(),
            4 => vec![0xFF, 0xFE, b'0' + (k % 10) as u8, b'\n'],
            5 => b"\n".to_vec(),
            6 => b" \t \r\n".to_vec(),
            // Longer than any chunk the property cuts the input into.
            _ => format!(
                "{}\n",
                render_event(&ServerEvent::Profile {
                    node: k,
                    declare: (0..120).collect(),
                    requests: vec![(1, 2)],
                })
            )
            .into_bytes(),
        }
    }

    proptest! {
        #[test]
        fn chunked_framing_matches_whole_buffer_framing(
            kinds in proptest::collection::vec(0u8..8, 0..40),
            tail in proptest::collection::vec(0u8..8, 0..=1),
            cuts in proptest::collection::vec(1usize..97, 1..16),
        ) {
            let mut log: Vec<u8> = Vec::new();
            for (k, kind) in kinds.iter().enumerate() {
                log.extend(line(*kind, k as u32));
            }
            // Optionally end mid-line: everything but a line's newline.
            for kind in tail {
                let mut partial = line(kind, 999);
                partial.pop();
                log.extend(partial);
            }

            let mut whole = Framed::default();
            let consumed = frame_lines(&log, 0, &mut whole);

            let mut chunked = Framed::default();
            let mut lines = LineBuffer::default();
            let mut src: &[u8] = &log;
            for cut in cuts.iter().cycle() {
                if lines.read_from(&mut src, *cut, &mut chunked).unwrap() == 0 {
                    break;
                }
            }
            prop_assert_eq!(&chunked, &whole);
            prop_assert_eq!(lines.partial(), &log[consumed..]);
        }
    }

    #[test]
    fn line_longer_than_the_cap_is_skipped_with_bounded_memory() {
        let mut log = vec![b'x'; MAX_LINE + 3 * CHUNK];
        log.push(b'\n');
        log.extend(line(0, 7));
        let mut out = Framed::default();
        let mut lines = LineBuffer::default();
        let mut src: &[u8] = &log;
        while lines.read_from(&mut src, CHUNK, &mut out).unwrap() > 0 {
            assert!(lines.buf.len() <= MAX_LINE + CHUNK, "{}", lines.buf.len());
        }
        assert_eq!(out.malformed, vec![too_long()]);
        assert_eq!(out.events.len(), 1, "{out:?}");
        assert!(out.invalid_utf8.is_empty());
        assert!(lines.partial().is_empty());
    }

    #[test]
    fn framing_sorts_each_line_kind() {
        let mut log = Vec::new();
        for kind in 0..8 {
            log.extend(line(kind, 1));
        }
        log.extend(b"{\"type\":\"edge_add\"");
        let mut out = Framed::default();
        let consumed = frame_lines(&log, 0, &mut out);
        assert_eq!(out.events.len(), 3, "{out:?}");
        assert_eq!(out.malformed.len(), 2, "{out:?}");
        assert_eq!(out.invalid_utf8, vec![3]);
        assert_eq!(&log[consumed..], b"{\"type\":\"edge_add\"");
    }
}

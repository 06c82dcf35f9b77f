//! The ingest front end: one chunked reader over the event log.
//!
//! `--replay` pumps a [`LogReader`] on the calling thread up to the log
//! length seen at open, applying each batch there, then hands the same
//! reader — partial line included — to the `st-ingest` tail thread
//! ([`ingest_loop`]), which only reads, frames, parses and counts bad
//! lines: it hands each batch to the writer thread. Each pump is one read
//! of at most [`CHUNK`] bytes:
//!
//! * [`LineBuffer::read_from`] reads straight into the buffer after the
//!   carried partial line, frames the complete lines with [`frame_lines`]
//!   — a forward scan over borrowed slices that resumes the newline search
//!   where the previous read stopped, so every byte is scanned once
//!   however the log is cut into reads — and compacts the buffer once,
//!   moving only the new trailing partial line to its front;
//! * the read's events are moved, as one batch stamped with the instant
//!   the read returned, to a sink: the replay applies it, the tail sends
//!   it over the bounded handoff, waiting while the handoff is full. Its
//!   bad lines are counted and logged on the reading thread: invalid UTF-8
//!   under `server_events_invalid_utf8_total`, parse failures (including
//!   JSON nested deeper than the parser's 128-level cap) under
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
use std::sync::mpsc::TrySendError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::event::{parse_event, ServerEvent};
use crate::{ServerState, ToWriter};

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
    /// Filled by every read; its events move to the sink, its bad lines
    /// are counted.
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
    /// lines, count and log the bad ones, and move the events, if any, to
    /// `sink` as one batch with the instant the read returned. Returns the
    /// bytes read (0 at end of file or at `end`).
    fn pump(
        &mut self,
        state: &ServerState,
        end: u64,
        sink: &mut impl FnMut(Vec<ServerEvent>, Instant),
    ) -> io::Result<usize> {
        let left = usize::try_from(end.saturating_sub(self.offset)).unwrap_or(usize::MAX);
        let n = self
            .lines
            .read_from(&mut self.file, left.min(CHUNK), &mut self.framed)?;
        let read_at = Instant::now();
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
        if !self.framed.events.is_empty() {
            sink(std::mem::take(&mut self.framed.events), read_at);
        }
        Ok(n)
    }

    /// `--replay`: pump on the calling thread up to the log length seen
    /// now, so a process that keeps appending cannot hold the daemon back
    /// from binding. A trailing partial line stays buffered for the tail.
    pub(crate) fn replay(
        &mut self,
        state: &ServerState,
        sink: &mut impl FnMut(Vec<ServerEvent>, Instant),
    ) -> io::Result<()> {
        let backlog = self.file.metadata()?.len();
        while self.offset < backlog && self.pump(state, backlog, sink)? > 0 {}
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

/// Hand one batch to the writer, waiting while the handoff is full, and
/// time the wait into `server_ingest_handoff_seconds`. Returns `false` if
/// the writer is gone.
fn hand_over(state: &ServerState, events: Vec<ServerEvent>, read_at: Instant) -> bool {
    let waited = match state.handoff.try_send(ToWriter::Batch { events, read_at }) {
        Ok(()) => Duration::ZERO,
        Err(TrySendError::Full(batch)) => {
            let started = Instant::now();
            if state.handoff.send(batch).is_err() {
                return false;
            }
            started.elapsed()
        }
        Err(TrySendError::Disconnected(_)) => return false,
    };
    state.ingest_handoff_seconds.observe(waited.as_secs_f64());
    true
}

/// The `st-ingest` thread: pump the reader until shutdown is signalled,
/// then drain whatever the log still holds before returning. If the
/// writer is gone, the batches are dropped and that is logged once; the
/// thread keeps reading and counting bad lines at its usual pace.
pub(crate) fn ingest_loop(state: Arc<ServerState>, mut reader: LogReader) {
    let mut writer_gone = false;
    let mut sink = |events: Vec<ServerEvent>, read_at: Instant| {
        if !writer_gone && !hand_over(&state, events, read_at) {
            writer_gone = true;
            state.log.error(
                "ingest",
                "writer thread is gone; dropping parsed events",
                &[],
            );
        }
    };
    loop {
        match reader.pump(&state, u64::MAX, &mut sink) {
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

    /// Bytes that reach deep parser states: JSON punctuation, digits,
    /// letters, the escape character, whitespace, both line ends and one
    /// byte that is never valid UTF-8.
    const JSON_TOKENS: &[u8] = b"{}[]\":,.-+eE0123456789abcdefghijklmnopqrstuvwxyz\\ \r\n\xFF";

    /// Whole JSON words and event fields, so generated text also gets past
    /// the JSON parser into event interpretation.
    const JSON_WORDS: &[&str] = &[
        "{\"type\":\"rating\",",
        "{\"type\":\"edge_add\",",
        "{\"type\":\"edge_remove\",",
        "{\"type\":\"profile\",",
        "\"rater\":",
        "\"ratee\":",
        "\"value\":",
        "\"interest\":",
        "\"a\":",
        "\"b\":",
        "\"rel\":\"kin\"",
        "\"node\":",
        "\"declare\":[",
        "\"requests\":[[",
        "1",
        "-0.5",
        "1e400",
        "4294967296",
        "65536",
        "null",
        "true",
        "\"\\u00e9\\ud800\"",
        ",",
        "]",
        "}",
    ];

    fn uniform_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, 0..2048)
    }

    fn json_token_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0..JSON_TOKENS.len()).prop_map(|i| JSON_TOKENS[i]), 0..2048)
    }

    /// Read sizes: mostly small, so lines straddle reads, sometimes up to
    /// a whole chunk.
    fn cuts() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(prop_oneof![1usize..64, 1usize..=CHUNK], 1..16)
    }

    /// Frame `log` whole and in reads of the `cuts` sizes, and check that
    /// both agree, that the buffer stays bounded, and that every non-blank
    /// complete line is counted exactly once.
    fn check_framing(log: &[u8], cuts: &[usize]) -> Result<(), TestCaseError> {
        let mut whole = Framed::default();
        let consumed = frame_lines(log, 0, &mut whole);

        let mut chunked = Framed::default();
        let mut lines = LineBuffer::default();
        let mut src: &[u8] = log;
        for cut in cuts.iter().cycle() {
            let n = lines.read_from(&mut src, *cut, &mut chunked).unwrap();
            prop_assert!(
                lines.buf.len() <= MAX_LINE + CHUNK,
                "buffer grew to {}",
                lines.buf.len()
            );
            if n == 0 {
                break;
            }
        }
        prop_assert_eq!(&chunked, &whole);
        prop_assert_eq!(lines.partial(), &log[consumed..]);

        let blank = |line: &[u8]| std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty());
        let non_blank = log[..consumed]
            .split_inclusive(|&b| b == b'\n')
            .filter(|line| !blank(&line[..line.len() - 1]))
            .count();
        let counted = whole.events.len() + whole.malformed.len() + whole.invalid_utf8.len();
        prop_assert_eq!(counted, non_blank);
        Ok(())
    }

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

        #[test]
        fn uniform_bytes_frame_the_same_in_any_reads(log in uniform_bytes(), cuts in cuts()) {
            check_framing(&log, &cuts)?;
        }

        #[test]
        fn json_token_bytes_frame_the_same_in_any_reads(
            log in json_token_bytes(),
            cuts in cuts(),
        ) {
            check_framing(&log, &cuts)?;
        }

        #[test]
        fn parse_event_never_panics(
            pieces in proptest::collection::vec(
                prop_oneof![
                    (0..JSON_WORDS.len()).prop_map(|i| JSON_WORDS[i].to_owned()),
                    (0..JSON_TOKENS.len()).prop_map(|i| char::from(JSON_TOKENS[i]).to_string()),
                    (0u32..=0x10FFFF)
                        .prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}').to_string()),
                ],
                0..64,
            ),
        ) {
            let text = pieces.concat();
            // Either outcome is fine; reaching it without a panic is the
            // property.
            let _ = parse_event(&text);
        }
    }

    #[test]
    fn hand_over_counts_each_batch_and_reports_a_gone_writer() {
        use socialtrust::prelude::Telemetry;

        let (handoff, batches) = std::sync::mpsc::sync_channel(1);
        let telemetry = Telemetry::new();
        let config = crate::ServerConfig::default();
        let service = crate::service::ReputationService::new(config.service, &telemetry);
        let state = ServerState::new(&service, handoff, telemetry, &config);
        let edge = ServerEvent::EdgeRemove { a: 1, b: 2 };

        assert!(hand_over(&state, vec![edge.clone()], Instant::now()));
        match batches.try_recv() {
            Ok(ToWriter::Batch { events, .. }) => assert_eq!(events, vec![edge.clone()]),
            _ => panic!("the batch did not reach the writer's end"),
        }
        assert_eq!(state.ingest_handoff_seconds.count(), 1);
        assert_eq!(state.ingest_handoff_seconds.sum(), 0.0, "there was room");

        drop(batches);
        assert!(!hand_over(&state, vec![edge], Instant::now()));
        assert_eq!(state.ingest_handoff_seconds.count(), 1);
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

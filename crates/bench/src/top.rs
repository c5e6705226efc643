//! The `blap-top` dashboard: loading and rendering telemetry sidecars.
//!
//! The binary in `src/bin/blap_top.rs` is a thin shell over this module
//! so the interesting behavior — reading a growing JSONL sidecar, live or
//! once, without choking on a half-written final line, and rendering the
//! terminal dashboard — is exercisable from unit tests without spawning a
//! process.

use std::fmt::Write as _;
use std::io;

use blap_obs::binfmt::MAX_EVENT_BYTES;
use blap_obs::json::{DecodeError, Fault};
use blap_obs::telemetry::{self, TelemetrySnapshot};

/// Bytes a poll reads from the sidecar per step. With the line cap, this
/// bounds what a poll holds: at most [`MAX_EVENT_BYTES`] of an unfinished
/// line plus one chunk, however large the file.
const CHUNK: usize = 64 * 1024;

/// The one reader of a telemetry JSONL sidecar, live or after the fact.
///
/// Tracks a byte offset and only ever consumes *complete* lines: a torn
/// final line — the writer mid-append, or the last line a killed campaign
/// got out — stays in the carry until its newline arrives, or until
/// [`TailReader::finish`] decides it at end of file. A complete line that
/// fails to parse is corruption, not write-in-progress: a hard error. So
/// is a line, terminated or not, longer than [`MAX_EVENT_BYTES`], the cap
/// trace lines already use.
#[derive(Debug, Default)]
pub struct TailReader {
    offset: u64,
    carry: Vec<u8>,
    /// How much of `carry` holds no newline: where the next scan resumes.
    scanned: usize,
    /// Complete lines consumed, for error messages.
    lines: u64,
}

impl TailReader {
    /// A follower starting at the beginning of the file.
    pub fn new() -> TailReader {
        TailReader::default()
    }

    /// Reads any newly completed snapshots since the last poll (possibly
    /// none), one chunk at a time. A shrunken file resets the follower to
    /// the new beginning (the sidecar was truncated and restarted). A
    /// corrupt line, or one over the cap, is an
    /// [`io::ErrorKind::InvalidData`] error carrying its [`DecodeError`].
    pub fn poll(&mut self, path: &str) -> io::Result<Vec<TelemetrySnapshot>> {
        use std::io::{Read, Seek, SeekFrom};
        let invalid = |e| io::Error::new(io::ErrorKind::InvalidData, e);
        let too_long = |line_no: u64| {
            invalid(
                DecodeError::new("", Fault::TooLong(MAX_EVENT_BYTES))
                    .within(&format!("line {line_no}")),
            )
        };
        let mut file = std::fs::File::open(path)?;
        if file.metadata()?.len() < self.offset {
            *self = TailReader::new();
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut out = Vec::new();
        loop {
            let read = (&mut file)
                .take(CHUNK as u64)
                .read_to_end(&mut self.carry)?;
            if read == 0 {
                return Ok(out);
            }
            self.offset += read as u64;
            let mut start = 0;
            while let Some(len) = self.carry[self.scanned..].iter().position(|&b| b == b'\n') {
                let line = &self.carry[start..self.scanned + len];
                self.scanned += len + 1;
                start = self.scanned;
                self.lines += 1;
                if line.len() > MAX_EVENT_BYTES {
                    return Err(too_long(self.lines));
                }
                if !line.is_empty() {
                    out.push(parse(line, self.lines).map_err(invalid)?);
                }
            }
            self.carry.drain(..start);
            self.scanned = self.carry.len();
            if self.carry.len() > MAX_EVENT_BYTES {
                return Err(too_long(self.lines + 1));
            }
        }
    }

    /// Ends the read at end of file: what is left in the carry is one
    /// more snapshot when it parses (`Ok(None)` when nothing is left),
    /// else the torn tail of an interrupted append.
    pub fn finish(self) -> Result<Option<TelemetrySnapshot>, DecodeError> {
        if self.carry.is_empty() {
            return Ok(None);
        }
        parse(&self.carry, self.lines + 1).map(Some)
    }
}

/// Sidecar line `line_no` as a snapshot.
fn parse(line: &[u8], line_no: u64) -> Result<TelemetrySnapshot, DecodeError> {
    std::str::from_utf8(line)
        .map_err(|_| DecodeError::new("", Fault::Invalid("not UTF-8".to_owned())))
        .and_then(telemetry::parse_snapshot_line)
        .map_err(|err| err.within(&format!("line {line_no}")))
}

fn bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

fn seconds(ms: u64) -> String {
    format!("{:.1}s", ms as f64 / 1000.0)
}

/// A compact ASCII sparkline of the recent throughput history.
fn sparkline(history: &[&TelemetrySnapshot]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    let peak = history
        .iter()
        .map(|s| s.trials_per_sec)
        .fold(0.0_f64, f64::max);
    if peak <= 0.0 {
        return String::new();
    }
    history
        .iter()
        .rev()
        .take(32)
        .rev()
        .map(|s| {
            let level = (s.trials_per_sec / peak * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[level.min(LEVELS.len() - 1)] as char
        })
        .collect()
}

/// Renders the dashboard body for the latest snapshot, with `history`
/// (oldest first, latest last — typically everything read so far)
/// feeding the throughput sparkline.
pub fn render(history: &[TelemetrySnapshot]) -> String {
    let Some(s) = history.last() else {
        return "blap-top: no complete snapshot yet\n".to_owned();
    };
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "blap-top — campaign telemetry v{} (snapshot {}, wall {})",
        s.version,
        s.seq,
        seconds(s.wall_ms)
    );
    let trial_fraction = if s.trials_total > 0 {
        s.trials as f64 / s.trials_total as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "trials   {:>10}/{} {} {:5.1}%   {:.1} trials/s",
        s.trials,
        s.trials_total,
        bar(trial_fraction, 24),
        100.0 * trial_fraction,
        s.trials_per_sec
    );
    let refs: Vec<&TelemetrySnapshot> = history.iter().collect();
    let spark = sparkline(&refs);
    if !spark.is_empty() {
        let _ = writeln!(out, "rate     |{spark}|");
    }
    let _ = writeln!(
        out,
        "shards   {:>10}/{}   eta {}   virtual {}",
        s.shards,
        s.shards_total,
        if s.eta_ms > 0 {
            seconds(s.eta_ms)
        } else {
            "-".to_owned()
        },
        seconds(s.virtual_us / 1000)
    );
    let _ = writeln!(
        out,
        "checks   {} violations   {} snapshots dropped",
        s.violations, s.dropped
    );
    if !s.workers.is_empty() {
        let _ = writeln!(out, "workers  ({} busy)", s.workers.len());
        for w in &s.workers {
            let _ = writeln!(
                out,
                "  w{:<3} {} {:5.1}%  {:>6} tasks  busy {}",
                w.worker,
                bar(w.utilization, 16),
                100.0 * w.utilization,
                w.tasks,
                seconds(w.busy_ms)
            );
        }
    }
    if !s.races.is_empty() {
        let _ = writeln!(out, "win rates");
        for (label, cell) in &s.races {
            let percent = if cell.trials > 0 {
                100.0 * cell.wins as f64 / cell.trials as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<32} {:>8}/{:<8} ({percent:.0}%)",
                label, cell.wins, cell.trials
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_obs::telemetry::{RaceCell, WorkerLane};

    fn snapshot(seq: u64, trials: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            version: telemetry::SCHEMA_VERSION,
            seq,
            wall_ms: 1000 * (seq + 1),
            virtual_us: 5_000_000,
            trials,
            trials_total: 1000,
            shards: seq,
            shards_total: 10,
            trials_per_sec: 100.0 + seq as f64,
            eta_ms: 9000,
            violations: 2,
            dropped: 1,
            workers: vec![WorkerLane {
                worker: 0,
                tasks: 5,
                busy_ms: 800,
                utilization: 0.8,
            }],
            races: vec![(
                "Galaxy S8/blocking".to_owned(),
                RaceCell { wins: 3, trials: 7 },
            )],
        }
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("blap-top-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_str().expect("utf8").to_owned()
    }

    #[test]
    fn render_shows_every_dashboard_section() {
        let out = render(&[snapshot(0, 100), snapshot(1, 450)]);
        assert!(out.contains("450/1000"), "{out}");
        assert!(out.contains("45.0%"), "{out}");
        assert!(out.contains("101.0 trials/s"), "{out}");
        assert!(out.contains("eta 9.0s"), "{out}");
        assert!(out.contains("2 violations"), "{out}");
        assert!(out.contains("1 snapshots dropped"), "{out}");
        assert!(out.contains("w0"), "{out}");
        assert!(out.contains("Galaxy S8/blocking"), "{out}");
        assert!(out.contains("3/7"), "{out}");
        assert!(out.contains("rate     |"), "sparkline rendered: {out}");
    }

    #[test]
    fn render_with_no_snapshots_degrades() {
        assert!(render(&[]).contains("no complete snapshot"));
    }

    #[test]
    fn tail_reader_consumes_only_complete_lines() {
        let path = temp_path("tail.jsonl");
        let line0 = snapshot(0, 10).to_json_line();
        let line1 = snapshot(1, 20).to_json_line();
        // First poll: one complete line plus the head of a second.
        std::fs::write(&path, format!("{line0}\n{}", &line1[..10])).expect("write");
        let mut reader = TailReader::new();
        let got = reader.poll(&path).expect("poll");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 0);
        // Nothing new yet: the torn tail stays buffered, not an error.
        let got = reader.poll(&path).expect("poll");
        assert!(got.is_empty());
        // The writer finishes the line; the follower picks it up whole.
        std::fs::write(&path, format!("{line0}\n{line1}\n")).expect("write");
        let got = reader.poll(&path).expect("poll");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[0].trials, 20);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_reader_caps_a_line_at_the_event_limit() {
        // Over the cap, unterminated (a writer gone wrong, or not a
        // sidecar) or terminated: a typed error once the cap plus one
        // chunk is held, not the whole line in memory.
        let unterminated = vec![b'x'; 2 << 20];
        let mut terminated = vec![b'x'; MAX_EVENT_BYTES + 1];
        terminated.push(b'\n');
        for (name, bytes) in [("unterminated", unterminated), ("terminated", terminated)] {
            let path = temp_path(&format!("long_{name}.jsonl"));
            std::fs::write(&path, bytes).expect("write");
            let mut reader = TailReader::new();
            let err = reader.poll(&path).expect_err(name);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            let decode = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<DecodeError>())
                .expect("typed error");
            assert_eq!(decode.fault, Fault::TooLong(MAX_EVENT_BYTES), "{name}");
            assert_eq!(decode.path, "line 1", "{name}");
            assert!(reader.carry.len() <= MAX_EVENT_BYTES + CHUNK, "{name}");
            assert!(reader.offset <= (MAX_EVENT_BYTES + CHUNK) as u64, "{name}");
        }
    }

    #[test]
    fn tail_reader_resets_on_truncation() {
        let path = temp_path("truncated.jsonl");
        let line = snapshot(0, 10).to_json_line();
        std::fs::write(&path, format!("{line}\n{line}\n")).expect("write");
        let mut reader = TailReader::new();
        assert_eq!(reader.poll(&path).expect("poll").len(), 2);
        // A restarted sidecar (shorter file) re-reads from the top.
        std::fs::write(&path, format!("{line}\n")).expect("write");
        assert_eq!(reader.poll(&path).expect("poll").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Reads a whole sidecar as `blap-top --once` does: one poll, then
    /// the end-of-file decision on the carry.
    fn read_once(path: &str) -> io::Result<(Vec<TelemetrySnapshot>, bool)> {
        let mut reader = TailReader::new();
        let mut snapshots = reader.poll(path)?;
        let torn = match reader.finish() {
            Ok(last) => {
                snapshots.extend(last);
                false
            }
            Err(_) => true,
        };
        Ok((snapshots, torn))
    }

    #[test]
    fn reader_tolerates_torn_tail_but_rejects_corrupt_body() {
        let path = temp_path("torn.jsonl");
        let line = snapshot(0, 10).to_json_line();
        // Two complete lines plus a torn tail (killed mid-append).
        std::fs::write(
            &path,
            format!("{line}\n{line}\n{}", &line[..line.len() / 2]),
        )
        .expect("write");
        let (snapshots, torn) = read_once(&path).expect("loads");
        assert_eq!(snapshots.len(), 2);
        assert!(torn);
        // A complete final line parses and is not torn.
        std::fs::write(&path, format!("{line}\n{line}")).expect("write");
        let (snapshots, torn) = read_once(&path).expect("loads");
        assert_eq!(snapshots.len(), 2);
        assert!(!torn, "newline-less but complete line parses");
        // Corruption *before* the tail is an error, not a skip.
        std::fs::write(&path, format!("not json\n{line}\n")).expect("write");
        let err = read_once(&path).expect_err("corrupt body");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().starts_with("line 1: JSON parse error"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn once_mode_renders_through_a_torn_tail() {
        // Regression (failing first): the one-shot reader used to feed
        // every physical line to the parser, so a campaign killed
        // mid-append (--stop-after injection) left a sidecar whose final
        // half-line made `blap-top --once` exit with a parse error
        // instead of rendering the complete prefix.
        let path = temp_path("killed.jsonl");
        let line = snapshot(3, 300).to_json_line();
        let torn = &line[..line.len() / 3];
        std::fs::write(&path, format!("{line}\n{torn}")).expect("write");
        let (snapshots, torn) = read_once(&path).expect("torn tail is not an error");
        assert_eq!(snapshots.len(), 1);
        assert!(torn);
        let out = render(&snapshots);
        assert!(out.contains("300/1000"), "{out}");
        let _ = std::fs::remove_file(&path);
    }
}

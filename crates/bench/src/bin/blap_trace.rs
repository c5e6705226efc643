//! Trace analysis CLI: invariant checking, timeline profiling, format
//! conversion, and artifact diffing for the observability artifacts the
//! experiment binaries emit with `--trace` / `--metrics`.
//!
//! ```text
//! blap-trace check    <trace> [--follow]     # exit 1 on any violation
//! blap-trace timeline <trace> [--follow]     # phase-latency profile
//! blap-trace convert  <in> <out>             # binary <-> JSONL
//! blap-trace diff     <a> <b>                # exit 1 on unexplained drift
//! ```
//!
//! `check --follow` / `timeline --follow` tail a trace a campaign is
//! still writing: a read that hits end-of-file waits for the file to
//! grow instead of finishing, and the analysis only completes once the
//! file has been idle for `--idle-ms` milliseconds (default 2000;
//! 0 follows until interrupted). Because the writer may die mid-line
//! (`--stop-after` kill injection), follow mode tolerates a torn final
//! JSONL line or binary frame at that last end-of-file — it warns on
//! stderr and reports on the complete prefix, where the one-shot modes
//! would exit 2. Corruption on an *interior* (newline-terminated or
//! fully-framed) record stays fatal in both modes.
//!
//! `check`, `timeline`, `convert`, and trace `diff` all **stream**, and
//! all read a trace the same way: lines (or binary frames) are fed
//! through the constant-memory [`blap_obs::StreamAnalyzer`] /
//! [`blap_obs::TraceDiff`] as they are read, so a campaign-scale artifact
//! is analyzed without ever being materialized, and a line one of them
//! refuses is refused by all of them with the same message. Trace inputs
//! may be JSONL or the `b"BLAPTRC1"` binary encoding — the format is
//! sniffed from the first 8 bytes — and no event may be longer than
//! [`binfmt::MAX_EVENT_BYTES`] in either. `convert` flips the format: a
//! JSONL input is written as binary and vice versa, and the round trip is
//! byte-deterministic (a non-canonical JSONL line is an error, not a
//! silent rewrite).
//!
//! `diff` picks the comparison by extension: two `.json` files are
//! compared structurally as metrics documents (run-dependent `wall_ms` /
//! `*wall_us*` paths excused); anything else is compared line-by-line as a
//! trace. Exit codes: 0 clean, 1 violations/drift, 2 usage or parse error.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use blap_bench::cli::Args;
use blap_obs::analyze::AnalyzeError;
use blap_obs::binfmt::{self, Frame, FrameWriter};
use blap_obs::{diff_metrics, json, CodecError, FrameReader, StreamAnalyzer, TraceDiff};

const USAGE: &str =
    "usage: blap-trace <check|timeline|convert|diff> <file> [file2] [--follow] [--idle-ms MS]";

/// How long a followed file must stop growing before the analysis
/// finishes (overridable with `--idle-ms`; 0 follows until killed).
const DEFAULT_IDLE_MS: u64 = 2000;

/// How often a follower re-polls a file that is not growing.
const FOLLOW_POLL_MS: u64 = 100;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(cmd @ ("check" | "timeline")) => {
            let parsed = match Args::try_from_iter_with(
                args[1..].iter().cloned(),
                &["--idle-ms"],
                &["--follow"],
            ) {
                Ok(parsed) => parsed,
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::from(2);
                }
            };
            let [path] = parsed.positional.as_slice() else {
                return usage();
            };
            let follow = match follow_policy(&parsed) {
                Ok(follow) => follow,
                Err(code) => return code,
            };
            if cmd == "check" {
                check(path, follow)
            } else {
                timeline(path, follow)
            }
        }
        Some("convert") => match args.as_slice() {
            [_, input, output] => convert(input, output),
            _ => usage(),
        },
        Some("diff") => match args.as_slice() {
            [_, a, b] => diff(a, b),
            _ => usage(),
        },
        _ => usage(),
    }
}

/// Resolves `--follow` / `--idle-ms` into a policy. `--idle-ms` without
/// `--follow` is a usage error: it would silently do nothing.
fn follow_policy(args: &Args) -> Result<Option<FollowPolicy>, ExitCode> {
    let has_idle = args.extra.iter().any(|(flag, _)| flag == "--idle-ms");
    if !args.has_switch("--follow") {
        if has_idle {
            eprintln!("error: --idle-ms requires --follow");
            return Err(ExitCode::from(2));
        }
        return Ok(None);
    }
    let idle_ms: u64 = args
        .extra_or("--idle-ms", DEFAULT_IDLE_MS)
        .map_err(|message| {
            eprintln!("error: {message}");
            ExitCode::from(2)
        })?;
    Ok(Some(FollowPolicy {
        idle: Duration::from_millis(idle_ms),
        poll: Duration::from_millis(FOLLOW_POLL_MS),
    }))
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// A trace input in its sniffed format (the first `MAGIC.len()` bytes,
/// pushed back), yielding trace lines through [`TraceInput::next_line`].
enum TraceInput {
    Jsonl {
        reader: BufReader<PrefixedReader>,
        line: String,
        line_no: usize,
    },
    Binary {
        frames: FrameReader<BufReader<PrefixedReader>>,
        frame: Option<Frame>,
    },
}

/// Why a trace input stopped before its end.
enum ReadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A JSONL line longer than [`binfmt::MAX_EVENT_BYTES`], or not UTF-8.
    Line(AnalyzeError),
    /// A binary frame is malformed, or torn.
    Frame(CodecError),
}

impl TraceInput {
    /// The next trace line, and whether it is complete (only a last JSONL
    /// line without its newline is not); `Ok(None)` at the end.
    fn next_line(&mut self) -> Result<Option<(&str, bool)>, ReadError> {
        match self {
            TraceInput::Jsonl {
                reader,
                line,
                line_no,
            } => {
                *line_no += 1;
                match json::read_line(reader, line, binfmt::MAX_EVENT_BYTES) {
                    Ok(next) => Ok(next.map(|terminated| (line.as_str(), terminated))),
                    Err(err) if err.kind() == std::io::ErrorKind::InvalidData => {
                        Err(ReadError::Line(AnalyzeError {
                            line: *line_no,
                            message: err.to_string(),
                        }))
                    }
                    Err(err) => Err(ReadError::Io(err)),
                }
            }
            TraceInput::Binary { frames, frame } => match frames.next_frame() {
                Ok(next) => Ok(next.map(|next| (frame.insert(next).line(), true))),
                Err(err) => Err(ReadError::Frame(err)),
            },
        }
    }
}

impl ReadError {
    /// Prints the error for the trace at `path`; the exit code is 2.
    fn report(&self, path: &str) -> ExitCode {
        match self {
            ReadError::Io(err) => eprintln!("error: cannot read {path}: {err}"),
            ReadError::Line(err) => eprintln!("error: {path}: {err}"),
            ReadError::Frame(err) => eprintln!("error: {path}: {err}"),
        }
        ExitCode::from(2)
    }
}

/// Tail-follow behavior for `--follow`: reads that hit end-of-file wait
/// `poll` and retry until the file has been idle for `idle` (zero idle
/// follows forever).
#[derive(Clone, Copy)]
struct FollowPolicy {
    idle: Duration,
    poll: Duration,
}

impl FollowPolicy {
    /// Whether a follower that last saw growth at `since` should give up.
    fn expired(&self, since: Instant) -> bool {
        !self.idle.is_zero() && since.elapsed() >= self.idle
    }
}

/// A file with its sniffed prefix stitched back on. With a follow
/// policy, end-of-file blocks (sleep + retry) until the idle timeout
/// declares the writer finished; the first timed-out read latches
/// `done` so every later read sees a consistent end of stream.
struct PrefixedReader {
    prefix: std::io::Cursor<Vec<u8>>,
    file: File,
    follow: Option<FollowPolicy>,
    done: bool,
}

impl Read for PrefixedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.prefix.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        let Some(policy) = self.follow else {
            return self.file.read(buf);
        };
        if self.done {
            return Ok(0);
        }
        let idle_since = Instant::now();
        loop {
            let n = self.file.read(buf)?;
            if n > 0 {
                return Ok(n);
            }
            if policy.expired(idle_since) {
                self.done = true;
                return Ok(0);
            }
            std::thread::sleep(policy.poll);
        }
    }
}

fn open_trace(path: &str, follow: Option<FollowPolicy>) -> Result<TraceInput, ExitCode> {
    let mut file = File::open(path).map_err(|err| {
        eprintln!("error: cannot read {path}: {err}");
        ExitCode::from(2)
    })?;
    let mut prefix = vec![0u8; binfmt::MAGIC.len()];
    let mut filled = 0;
    let mut last_growth = Instant::now();
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            // A followed file may not hold the magic-length prefix yet
            // (the campaign just created it); wait for enough bytes to
            // sniff the format instead of misreading an empty file.
            Ok(0) => match follow {
                Some(policy) if !policy.expired(last_growth) => std::thread::sleep(policy.poll),
                _ => break,
            },
            Ok(n) => {
                filled += n;
                last_growth = Instant::now();
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => {
                eprintln!("error: cannot read {path}: {err}");
                return Err(ExitCode::from(2));
            }
        }
    }
    prefix.truncate(filled);
    let binary = binfmt::is_binary(&prefix);
    let reader = BufReader::new(PrefixedReader {
        prefix: std::io::Cursor::new(prefix),
        file,
        follow,
        done: false,
    });
    if binary {
        let frames = FrameReader::new(reader).map_err(|err| ReadError::Frame(err).report(path))?;
        Ok(TraceInput::Binary {
            frames,
            frame: None,
        })
    } else {
        Ok(TraceInput::Jsonl {
            reader,
            line: String::new(),
            line_no: 0,
        })
    }
}

/// Streams a trace — either format — through a fresh analyzer.
///
/// With `tolerate_torn` (follow mode), a final record the writer never
/// finished — a newline-less JSONL tail that fails to parse, or a
/// truncated binary frame — ends the stream with a stderr warning
/// instead of a fatal error: by the time a follower sees end-of-file
/// the idle timeout has passed, so a torn tail means the writer was
/// killed mid-append, and the complete prefix is still worth a report.
/// Frames carry their canonical JSONL lines and take the same path as a
/// converted file would: one analyzer, two formats.
fn analyze_stream(
    path: &str,
    mut input: TraceInput,
    tolerate_torn: bool,
) -> Result<blap_obs::TraceAnalysis, ExitCode> {
    let mut analyzer = StreamAnalyzer::new();
    loop {
        match input.next_line() {
            Ok(Some((line, complete))) => {
                if let Err(err) = analyzer.push_line(line) {
                    if tolerate_torn && !complete {
                        eprintln!("warning: {path}: ignoring torn final line: {err}");
                        break;
                    }
                    eprintln!("error: {path}: {err}");
                    return Err(ExitCode::from(2));
                }
            }
            Ok(None) => break,
            Err(ReadError::Frame(err)) if tolerate_torn && err.truncated => {
                eprintln!("warning: {path}: ignoring torn final frame: {err}");
                break;
            }
            Err(err) => return Err(err.report(path)),
        }
    }
    Ok(analyzer.finish())
}

fn check(path: &str, follow: Option<FollowPolicy>) -> ExitCode {
    let input = match open_trace(path, follow) {
        Ok(input) => input,
        Err(code) => return code,
    };
    match analyze_stream(path, input, follow.is_some()) {
        Ok(analysis) => {
            print!("{}", analysis.report());
            if analysis.ok() {
                println!("OK: all invariants hold");
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(code) => code,
    }
}

fn timeline(path: &str, follow: Option<FollowPolicy>) -> ExitCode {
    let input = match open_trace(path, follow) {
        Ok(input) => input,
        Err(code) => return code,
    };
    match analyze_stream(path, input, follow.is_some()) {
        Ok(analysis) => {
            println!(
                "{} lines, {} trial segments",
                analysis.line_count, analysis.segment_count
            );
            print!("{}", analysis.profile.render());
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

/// Where `convert` writes: the format the input is not in.
enum Output {
    Binary(FrameWriter<BufWriter<File>>),
    Jsonl(BufWriter<File>),
}

fn convert(input_path: &str, output_path: &str) -> ExitCode {
    let mut input = match open_trace(input_path, None) {
        Ok(input) => input,
        Err(code) => return code,
    };
    let write_failed = |err: std::io::Error| {
        eprintln!("error: cannot write {output_path}: {err}");
        ExitCode::from(2)
    };
    let file = match File::create(output_path) {
        Ok(file) => BufWriter::new(file),
        Err(err) => {
            eprintln!("error: cannot create {output_path}: {err}");
            return ExitCode::from(2);
        }
    };
    let mut output = match input {
        // JSONL in -> binary out. Every line must be a canonical trace
        // line; anything else would not survive the round trip.
        TraceInput::Jsonl { .. } => match FrameWriter::new(file) {
            Ok(writer) => Output::Binary(writer),
            Err(err) => return write_failed(err),
        },
        TraceInput::Binary { .. } => Output::Jsonl(file),
    };
    let mut converted = 0usize;
    loop {
        let line = match input.next_line() {
            Ok(Some((line, _))) => line,
            Ok(None) => break,
            Err(err) => return err.report(input_path),
        };
        converted += 1;
        let written = match &mut output {
            Output::Binary(writer) => match Frame::from_jsonl(line) {
                Ok(frame) => writer.write_frame(&frame),
                Err(err) => {
                    let err = AnalyzeError {
                        line: converted,
                        message: err.to_string(),
                    };
                    eprintln!("error: {input_path}: {err}");
                    return ExitCode::from(2);
                }
            },
            Output::Jsonl(writer) => writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n")),
        };
        if let Err(err) = written {
            return write_failed(err);
        }
    }
    let finished = match output {
        Output::Binary(writer) => writer.finish().map(drop),
        Output::Jsonl(mut writer) => writer.flush(),
    };
    if let Err(err) = finished {
        return write_failed(err);
    }
    println!("converted {converted} event(s): {input_path} -> {output_path}");
    ExitCode::SUCCESS
}

fn diff(a_path: &str, b_path: &str) -> ExitCode {
    let both_metrics = a_path.ends_with(".json") && b_path.ends_with(".json");
    let report = if both_metrics {
        // Metrics documents are small (one meta header + one metrics
        // line); structural comparison needs the parsed form anyway.
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|err| {
                eprintln!("error: cannot read {path}: {err}");
                ExitCode::from(2)
            })
        };
        let (a, b) = match (read(a_path), read(b_path)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(code), _) | (_, Err(code)) => return code,
        };
        match diff_metrics(&a, &b) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("error: metrics parse failed: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        match diff_trace_files(a_path, b_path) {
            Ok(report) => report,
            Err(code) => return code,
        }
    };
    print!("{}", report.render(a_path, b_path));
    if report.no_drift() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Streams two traces — either format — through the bounded-memory line
/// differ, refusing any line `check` refuses.
fn diff_trace_files(a_path: &str, b_path: &str) -> Result<blap_obs::DiffReport, ExitCode> {
    let mut a = open_trace(a_path, None)?;
    let mut b = open_trace(b_path, None)?;
    let mut diff = TraceDiff::new();
    loop {
        let la = a.next_line().map_err(|err| err.report(a_path))?;
        let lb = b.next_line().map_err(|err| err.report(b_path))?;
        if la.is_none() && lb.is_none() {
            return Ok(diff.finish());
        }
        diff.push_pair(la.map(|(line, _)| line), lb.map(|(line, _)| line))
            .map_err(|(artifact, err)| {
                eprintln!("error: {}: {err}", [a_path, b_path][artifact]);
                ExitCode::from(2)
            })?;
    }
}

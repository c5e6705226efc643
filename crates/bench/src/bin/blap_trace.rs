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
//! `check`, `timeline`, `convert`, and trace `diff` all **stream**: lines
//! (or binary frames) are fed through the constant-memory
//! [`blap_obs::StreamAnalyzer`] / [`blap_obs::TraceDiff`] as they are
//! read, so a campaign-scale artifact is analyzed without ever being
//! materialized. Trace inputs may be JSONL or the `b"BLAPTRC1"` binary
//! encoding — the format is sniffed from the first 8 bytes. `convert`
//! flips the format: a JSONL input is written as binary and vice versa,
//! and the round trip is byte-deterministic (a non-canonical JSONL line
//! is an error, not a silent rewrite).
//!
//! `diff` picks the comparison by extension: two `.json` files are
//! compared structurally as metrics documents (run-dependent `wall_ms` /
//! `*wall_us*` paths excused); anything else is compared line-by-line as a
//! trace. Exit codes: 0 clean, 1 violations/drift, 2 usage or parse error.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use blap_bench::cli::Args;
use blap_obs::binfmt::{self, Frame, FrameWriter};
use blap_obs::{diff_metrics, FrameReader, StreamAnalyzer, TraceDiff};

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

/// A trace input stream with its sniffed format: the first
/// `MAGIC.len()` bytes decide binary vs JSONL, and are pushed back so
/// the reader sees the stream from byte 0.
enum TraceInput {
    Jsonl(BufReader<PrefixedReader>),
    Binary(FrameReader<BufReader<PrefixedReader>>),
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
        let frames = FrameReader::new(reader).map_err(|err| {
            eprintln!("error: {path}: {err}");
            ExitCode::from(2)
        })?;
        Ok(TraceInput::Binary(frames))
    } else {
        Ok(TraceInput::Jsonl(reader))
    }
}

/// Reads one line into `buf` (cleared first), stripping the trailing
/// `\n` / `\r\n` exactly as `str::lines` does. `Ok(None)` at EOF;
/// otherwise `Ok(Some(terminated))`, where `terminated` is false only
/// for a final line with no newline — either a legitimate last line or
/// the torn tail a killed writer left behind.
fn next_line<R: BufRead>(reader: &mut R, buf: &mut String) -> std::io::Result<Option<bool>> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Ok(None);
    }
    let terminated = buf.ends_with('\n');
    if terminated {
        buf.pop();
        if buf.ends_with('\r') {
            buf.pop();
        }
    }
    Ok(Some(terminated))
}

/// Streams a trace — either format — through a fresh analyzer.
///
/// With `tolerate_torn` (follow mode), a final record the writer never
/// finished — a newline-less JSONL tail that fails to parse, or a
/// truncated binary frame — ends the stream with a stderr warning
/// instead of a fatal error: by the time a follower sees end-of-file
/// the idle timeout has passed, so a torn tail means the writer was
/// killed mid-append, and the complete prefix is still worth a report.
fn analyze_stream(
    path: &str,
    input: TraceInput,
    tolerate_torn: bool,
) -> Result<blap_obs::TraceAnalysis, ExitCode> {
    let mut analyzer = StreamAnalyzer::new();
    match input {
        TraceInput::Jsonl(mut reader) => {
            let mut line = String::new();
            loop {
                match next_line(&mut reader, &mut line) {
                    Ok(None) => break,
                    Ok(Some(terminated)) => {
                        if let Err(err) = analyzer.push_line(&line) {
                            if tolerate_torn && !terminated {
                                eprintln!("warning: {path}: ignoring torn final line: {err}");
                                break;
                            }
                            eprintln!("error: {path}: {err}");
                            return Err(ExitCode::from(2));
                        }
                    }
                    Err(err) => {
                        eprintln!("error: cannot read {path}: {err}");
                        return Err(ExitCode::from(2));
                    }
                }
            }
        }
        TraceInput::Binary(mut frames) => {
            // Frames carry their canonical JSONL lines and take the same
            // path as a converted file would: one analyzer, two formats.
            loop {
                match frames.next_frame() {
                    Ok(Some(frame)) => {
                        if let Err(err) = analyzer.push_line(frame.line()) {
                            eprintln!("error: {path}: {err}");
                            return Err(ExitCode::from(2));
                        }
                    }
                    Ok(None) => break,
                    Err(err) if tolerate_torn && err.truncated => {
                        eprintln!("warning: {path}: ignoring torn final frame: {err}");
                        break;
                    }
                    Err(err) => {
                        eprintln!("error: {path}: {err}");
                        return Err(ExitCode::from(2));
                    }
                }
            }
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

fn convert(input_path: &str, output_path: &str) -> ExitCode {
    let input = match open_trace(input_path, None) {
        Ok(input) => input,
        Err(code) => return code,
    };
    let output = match File::create(output_path) {
        Ok(file) => BufWriter::new(file),
        Err(err) => {
            eprintln!("error: cannot create {output_path}: {err}");
            return ExitCode::from(2);
        }
    };
    let write_failed = |err: std::io::Error| {
        eprintln!("error: cannot write {output_path}: {err}");
        ExitCode::from(2)
    };
    let mut converted = 0u64;
    match input {
        // JSONL in -> binary out. Every line must be a canonical trace
        // line; anything else would not survive the round trip.
        TraceInput::Jsonl(mut reader) => {
            let mut writer = match FrameWriter::new(output) {
                Ok(writer) => writer,
                Err(err) => return write_failed(err),
            };
            let mut line = String::new();
            let mut line_no = 0u64;
            loop {
                match next_line(&mut reader, &mut line) {
                    Ok(None) => break,
                    Ok(Some(_)) => {
                        line_no += 1;
                        let frame = match Frame::from_jsonl(&line) {
                            Ok(frame) => frame,
                            Err(err) => {
                                eprintln!("error: {input_path} line {line_no}: {err}");
                                return ExitCode::from(2);
                            }
                        };
                        if let Err(err) = writer.write_frame(&frame) {
                            return write_failed(err);
                        }
                        converted += 1;
                    }
                    Err(err) => {
                        eprintln!("error: cannot read {input_path}: {err}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Err(err) = writer.finish() {
                return write_failed(err);
            }
        }
        // Binary in -> JSONL out.
        TraceInput::Binary(mut frames) => {
            let mut output = output;
            loop {
                match frames.next_frame() {
                    Ok(Some(frame)) => {
                        let written = output
                            .write_all(frame.line().as_bytes())
                            .and_then(|()| output.write_all(b"\n"));
                        if let Err(err) = written {
                            return write_failed(err);
                        }
                        converted += 1;
                    }
                    Ok(None) => break,
                    Err(err) => {
                        eprintln!("error: {input_path}: {err}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Err(err) = output.flush() {
                return write_failed(err);
            }
        }
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

/// Streams two trace files through the bounded-memory line differ.
fn diff_trace_files(a_path: &str, b_path: &str) -> Result<blap_obs::DiffReport, ExitCode> {
    let open = |path: &str| {
        File::open(path).map(BufReader::new).map_err(|err| {
            eprintln!("error: cannot read {path}: {err}");
            ExitCode::from(2)
        })
    };
    let (mut a, mut b) = (open(a_path)?, open(b_path)?);
    let read_failed = |path: &str, err: std::io::Error| {
        eprintln!("error: cannot read {path}: {err}");
        ExitCode::from(2)
    };
    let mut diff = TraceDiff::new();
    let (mut la, mut lb) = (String::new(), String::new());
    loop {
        let more_a = next_line(&mut a, &mut la)
            .map_err(|e| read_failed(a_path, e))?
            .is_some();
        let more_b = next_line(&mut b, &mut lb)
            .map_err(|e| read_failed(b_path, e))?
            .is_some();
        if !more_a && !more_b {
            return Ok(diff.finish());
        }
        diff.push_pair(more_a.then_some(la.as_str()), more_b.then_some(lb.as_str()));
    }
}

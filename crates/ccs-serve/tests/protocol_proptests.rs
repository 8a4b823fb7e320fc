//! Property tests of the frame codec.
//!
//! *Fuzzing the parser:* whatever bytes arrive on a session's wire —
//! random garbage, truncated frames, two frames spliced mid-line —
//! `Frame::parse` returns `Ok` or a typed `Err`.  It must never panic:
//! the session loop turns parse errors into `error` frames and keeps
//! serving, and a panic there would take the connection (and, unisolated,
//! the daemon) down on hostile input.
//!
//! *Codec equivalence:* the single-pass encoder writes exactly the bytes
//! of the `Json`-tree compact rendering (kept here as the oracle), decoding
//! inverts encoding, and reordered, re-spaced, key-escaped lines with
//! unknown members decode like the canonical line — for random records
//! and frames with extreme integers, non-finite floats and hostile strings.
//! A cached `result` line, spliced from the store's record text, matches
//! the rendered frame byte for byte.

use ccs_experiment::json::{self, Json};
use ccs_experiment::RunRecord;
use ccs_serve::protocol::{
    write_cached_result_line, Frame, HealthReport, RequestState, SubmitRequest,
};
use ccs_sim::SimEngine;
use proptest::prelude::*;

/// A pool of valid frame lines to mutate (both directions of the wire:
/// the parser must survive server-to-client frames arriving at a server).
fn sample_lines() -> Vec<String> {
    let submit = SubmitRequest {
        id: "fuzz-1".to_string(),
        name: Some("fuzz".to_string()),
        workloads: vec!["mergesort".to_string(), "lu".to_string()],
        schedulers: vec!["pdf".to_string(), "ws".to_string()],
        cores: vec![2, 4],
        scale: 1024,
        quick: false,
        engine: SimEngine::EventDriven,
        baseline: true,
        timeout_ms: Some(1500),
    };
    vec![
        Frame::Submit(submit).to_line(),
        Frame::Cancel {
            id: "fuzz-1".to_string(),
        }
        .to_line(),
        Frame::Query {
            id: "fuzz-1".to_string(),
        }
        .to_line(),
        Frame::Ping.to_line(),
        Frame::HealthQuery.to_line(),
        Frame::Health(HealthReport {
            uptime_ms: 12345,
            inflight: 2,
            queue_depth: 1,
            panics_caught: 3,
            timeouts: 4,
            store_records: 5,
            store_bytes: 6789,
        })
        .to_line(),
        Frame::Error {
            id: Some("fuzz-1".to_string()),
            message: "sweep point 0 panicked: boom".to_string(),
        }
        .to_line(),
        Frame::hello().to_line(),
        Frame::Shutdown.to_line(),
        Frame::Result {
            id: "fuzz-1".to_string(),
            seq: 3,
            total: 8,
            cached: true,
            record: record(&mut Gen(7)),
        }
        .to_line(),
    ]
}

/// Byte-slice a string without caring about char boundaries, the way a
/// truncated read would.
fn cut(line: &str, at: usize) -> String {
    let bytes = line.as_bytes();
    String::from_utf8_lossy(&bytes[..at.min(bytes.len())]).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes, lossily decoded the way the session reads them.
    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(0u32..256, 0..200)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let line = String::from_utf8_lossy(&raw).into_owned();
        let _ = Frame::parse(&line);
    }

    /// Every prefix of every valid frame parses or errors — never panics —
    /// and the untruncated line still parses.
    #[test]
    fn truncated_valid_frames_never_panic(pick in 0usize..10, at in 0usize..600) {
        let lines = sample_lines();
        let line = &lines[pick % lines.len()];
        let _ = Frame::parse(&cut(line, at));
        prop_assert!(Frame::parse(line).is_ok(), "sample line must stay valid: {line}");
    }

    /// Two frames spliced mid-line (a torn write interleaving), optionally
    /// with garbage between the halves.
    #[test]
    fn interleaved_frame_fragments_never_panic(
        pick_a in 0usize..10,
        pick_b in 0usize..10,
        cut_a in 0usize..400,
        cut_b in 0usize..400,
        glue in prop::collection::vec(0u32..256, 0..16),
    ) {
        let lines = sample_lines();
        let a = &lines[pick_a % lines.len()];
        let b = &lines[pick_b % lines.len()];
        let glue: Vec<u8> = glue.iter().map(|&g| g as u8).collect();
        let spliced = format!(
            "{}{}{}",
            cut(a, cut_a),
            String::from_utf8_lossy(&glue),
            &b[b.len() - cut_b.min(b.len())..b.len()],
        );
        let _ = Frame::parse(&spliced);
    }

    /// Unbounded nesting is a typed error, not a stack overflow: the JSON
    /// layer caps recursion depth (`MAX_PARSE_DEPTH`).
    #[test]
    fn deep_nesting_is_rejected_not_fatal(depth in 1usize..5000, open in 0u32..2) {
        let bracket = if open == 0 { "[" } else { "{" };
        let line = format!("{}\"x\"", bracket.repeat(depth));
        prop_assert!(Frame::parse(&line).is_err());
    }
}

/// A deterministic generator (SplitMix64) drawing the codec inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Extremes, small counts and full-range values.
    fn u64(&mut self) -> u64 {
        match self.below(3) {
            0 => self.pick(&[0, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1]),
            1 => self.below(1000),
            _ => self.next(),
        }
    }

    /// Specials (NaN and ±inf render as `null`), ordinary values and raw
    /// bit patterns.
    fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => self.pick(&[
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
                1e300,
                0.1,
            ]),
            1 => self.below(1_000_000) as f64 / 1000.0,
            _ => f64::from_bits(self.next()),
        }
    }

    /// Quotes, backslashes, control characters and non-ASCII text.
    fn string(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| {
                self.pick(&[
                    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}',
                    '\u{1f}', '\u{7f}', 'é', '→', '😀', ':', ',', '{', ']',
                ])
            })
            .collect()
    }

    fn opt<T>(&mut self, draw: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.flip() {
            Some(draw(self))
        } else {
            None
        }
    }
}

fn record(g: &mut Gen) -> RunRecord {
    RunRecord {
        workload: g.string(),
        config: g.string(),
        cores: g.u64() as usize,
        clusters: g.u64() as usize,
        scheduler: g.string(),
        seed: g.opt(Gen::u64),
        cycles: g.u64(),
        instructions: g.u64(),
        tasks: g.u64() as usize,
        l1_accesses: g.u64(),
        l1_misses: g.u64(),
        l2_accesses: g.u64(),
        l2_misses: g.u64(),
        l2_mpki: g.f64(),
        l3_accesses: g.u64(),
        l3_misses: g.u64(),
        bandwidth_utilization: g.f64(),
        off_chip_bytes: g.u64(),
        trace_bytes: g.u64(),
        peak_alloc_estimate: g.u64(),
        compile_ms: 0.0,
        batch_width: 0,
        speedup_over_seq: g.opt(Gen::f64),
    }
}

fn frame(g: &mut Gen) -> Frame {
    let id = g.string();
    match g.below(15) {
        0 => Frame::Hello {
            version: g.string(),
        },
        1 => Frame::Submit(SubmitRequest {
            id,
            name: g.opt(Gen::string),
            // A submit without workloads is rejected by design.
            workloads: (0..1 + g.below(3)).map(|_| g.string()).collect(),
            schedulers: (0..g.below(3)).map(|_| g.string()).collect(),
            cores: (0..g.below(4)).map(|_| g.u64() as usize).collect(),
            scale: g.u64(),
            quick: g.flip(),
            engine: g.pick(&[
                SimEngine::EventDriven,
                SimEngine::Reference,
                SimEngine::Batch,
            ]),
            baseline: g.flip(),
            timeout_ms: g.opt(Gen::u64),
        }),
        2 => Frame::Accepted {
            id,
            name: g.string(),
            scale: g.u64(),
            points: g.u64() as usize,
            total: g.u64() as usize,
        },
        3..=5 => Frame::Result {
            id,
            seq: g.u64() as usize,
            total: g.u64() as usize,
            cached: g.flip(),
            record: record(g),
        },
        6 => Frame::Status {
            id,
            state: g.pick(&[
                RequestState::Done,
                RequestState::Cancelled,
                RequestState::TimedOut,
                RequestState::Failed,
            ]),
            completed: g.u64() as usize,
            total: g.u64() as usize,
        },
        7 => Frame::Query { id },
        8 => Frame::Progress {
            id,
            completed: g.u64() as usize,
            total: g.u64() as usize,
            cached: g.u64() as usize,
        },
        9 => Frame::Cancel { id },
        10 => g.pick(&[
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::HealthQuery,
        ]),
        11 => Frame::Health(HealthReport {
            uptime_ms: g.u64(),
            inflight: g.u64() as usize,
            queue_depth: g.u64() as usize,
            panics_caught: g.u64(),
            timeouts: g.u64(),
            store_records: g.u64() as usize,
            store_bytes: g.u64(),
        }),
        _ => Frame::Error {
            id: g.opt(|_| id),
            message: g.string(),
        },
    }
}

/// The oracle: a frame as a `Json` tree, member by member, whose compact
/// rendering the single-pass encoder must reproduce byte for byte.
fn tree(frame: &Frame) -> Json {
    let strings =
        |items: &[String]| Json::Array(items.iter().map(|s| Json::Str(s.clone())).collect());
    match frame {
        Frame::Hello { version } => Json::object([
            ("type", "hello".into()),
            ("version", version.as_str().into()),
        ]),
        Frame::Submit(req) => Json::object([
            ("type", "submit".into()),
            ("id", req.id.as_str().into()),
            ("name", req.name.as_deref().map_or(Json::Null, Json::from)),
            ("workloads", strings(&req.workloads)),
            ("schedulers", strings(&req.schedulers)),
            (
                "cores",
                Json::Array(req.cores.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("scale", req.scale.into()),
            ("quick", req.quick.into()),
            ("engine", req.engine.name().into()),
            ("baseline", req.baseline.into()),
            ("timeout_ms", req.timeout_ms.map_or(Json::Null, Json::from)),
        ]),
        Frame::Accepted {
            id,
            name,
            scale,
            points,
            total,
        } => Json::object([
            ("type", "accepted".into()),
            ("id", id.as_str().into()),
            ("name", name.as_str().into()),
            ("scale", (*scale).into()),
            ("points", (*points).into()),
            ("total", (*total).into()),
        ]),
        Frame::Result {
            id,
            seq,
            total,
            cached,
            record,
        } => Json::object([
            ("type", "result".into()),
            ("id", id.as_str().into()),
            ("seq", (*seq).into()),
            ("total", (*total).into()),
            ("cached", (*cached).into()),
            ("record", record.to_json()),
        ]),
        Frame::Status {
            id,
            state,
            completed,
            total,
        } => Json::object([
            ("type", "status".into()),
            ("id", id.as_str().into()),
            (
                "state",
                match state {
                    RequestState::Done => "done",
                    RequestState::Cancelled => "cancelled",
                    RequestState::TimedOut => "timeout",
                    RequestState::Failed => "failed",
                }
                .into(),
            ),
            ("completed", (*completed).into()),
            ("total", (*total).into()),
        ]),
        Frame::Query { id } => Json::object([("type", "query".into()), ("id", id.as_str().into())]),
        Frame::Progress {
            id,
            completed,
            total,
            cached,
        } => Json::object([
            ("type", "progress".into()),
            ("id", id.as_str().into()),
            ("completed", (*completed).into()),
            ("total", (*total).into()),
            ("cached", (*cached).into()),
        ]),
        Frame::Cancel { id } => {
            Json::object([("type", "cancel".into()), ("id", id.as_str().into())])
        }
        Frame::Ping => Json::object([("type", "ping".into())]),
        Frame::Pong => Json::object([("type", "pong".into())]),
        Frame::HealthQuery => Json::object([("type", "health".into())]),
        Frame::Health(report) => Json::object([
            ("type", "health".into()),
            ("uptime_ms", report.uptime_ms.into()),
            ("inflight", report.inflight.into()),
            ("queue_depth", report.queue_depth.into()),
            ("panics_caught", report.panics_caught.into()),
            ("timeouts", report.timeouts.into()),
            ("store_records", report.store_records.into()),
            ("store_bytes", report.store_bytes.into()),
        ]),
        Frame::Shutdown => Json::object([("type", "shutdown".into())]),
        Frame::Error { id, message } => Json::object([
            ("type", "error".into()),
            ("id", id.as_deref().map_or(Json::Null, Json::from)),
            ("message", message.as_str().into()),
        ]),
    }
}

/// Render `value` the long way round: object members shuffled and joined
/// by unknown ones (some nesting known key names), random whitespace
/// between tokens, key characters randomly `\u`-escaped.
fn scramble(value: &Json, g: &mut Gen, out: &mut String) {
    let space = |g: &mut Gen, out: &mut String| {
        for _ in 0..g.below(3) {
            out.push(g.pick(&[' ', '\t', '\n', '\r']));
        }
    };
    match value {
        Json::Object(pairs) => {
            let mut pairs = pairs.clone();
            for _ in 0..g.below(3) {
                let noise = g.pick(&[
                    Json::Null,
                    Json::Int(-3),
                    Json::Float(2.5e-8),
                    Json::Str("x\"y".to_string()),
                    Json::Array(vec![Json::UInt(1), Json::Array(Vec::new())]),
                    Json::object([("type", "warp".into()), ("id", Json::Array(Vec::new()))]),
                ]);
                pairs.push((format!("x-{}", g.below(100)), noise));
            }
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, g.below(i as u64 + 1) as usize);
            }
            out.push('{');
            for (i, (key, member)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(g, out);
                out.push('"');
                for c in key.chars() {
                    if g.below(4) == 0 {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    } else {
                        out.push(c);
                    }
                }
                out.push('"');
                space(g, out);
                out.push(':');
                space(g, out);
                scramble(member, g, out);
                space(g, out);
            }
            out.push('}');
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(g, out);
                scramble(item, g, out);
                space(g, out);
            }
            out.push(']');
        }
        scalar => out.push_str(&scalar.to_string_compact()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Records: encoder bytes == tree bytes, the streaming decoder agrees
    /// with the tree decoder on canonical and scrambled text, and a
    /// finite record round-trips exactly.
    #[test]
    fn record_codec_matches_the_tree(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let record = record(&mut g);
        let line = record.to_json_line();
        prop_assert_eq!(&line, &record.to_json().to_string_compact());
        let decoded = RunRecord::parse_json(&line);
        prop_assert_eq!(&decoded, &RunRecord::from_json(&json::parse(&line).unwrap()));
        if record.l2_mpki.is_finite()
            && record.bandwidth_utilization.is_finite()
            && record.speedup_over_seq.is_none_or(f64::is_finite)
        {
            prop_assert_eq!(decoded.as_ref().ok(), Some(&record));
        }
        let mut scrambled = String::new();
        scramble(&record.to_json(), &mut g, &mut scrambled);
        prop_assert_eq!(
            RunRecord::parse_json(&scrambled),
            RunRecord::from_json(&json::parse(&scrambled).unwrap())
        );
    }

    /// Cached results: the line spliced from a record's canonical compact
    /// JSON (the text the result store keeps) is byte-identical to the
    /// rendered `Frame::Result`, and a decodable one parses back to the
    /// same record.
    #[test]
    fn spliced_result_lines_match_rendered_frames(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let record = record(&mut g);
        let (id, seq, total) = (g.string(), g.u64() as usize, g.u64() as usize);
        let mut spliced = String::new();
        write_cached_result_line(&mut spliced, &id, seq, total, &record.to_json_line());
        let frame = Frame::Result { id, seq, total, cached: true, record: record.clone() };
        prop_assert_eq!(&spliced, &frame.to_line());
        let decodable = record.l2_mpki.is_finite() && record.bandwidth_utilization.is_finite();
        match Frame::parse(&spliced) {
            Ok(Frame::Result { record: parsed, cached: true, .. }) => {
                prop_assert!(decodable);
                if record.speedup_over_seq.is_none_or(f64::is_finite) {
                    prop_assert_eq!(parsed, record);
                }
            }
            Ok(other) => prop_assert!(false, "parsed as {:?}", other),
            Err(e) => prop_assert!(!decodable, "{}", e),
        }
    }

    /// Frames: encoder bytes == tree bytes, `parse(render(x))` renders
    /// back to the same line, and a scrambled line parses like the
    /// canonical one.
    #[test]
    fn frame_codec_matches_the_tree(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let frame = frame(&mut g);
        let line = frame.to_line();
        prop_assert_eq!(&line, &tree(&frame).to_string_compact());
        let parsed = Frame::parse(&line).map(|f| f.to_line());
        // Only a record with a non-finite required float (rendered `null`)
        // fails to decode — as it always has.
        let decodable = match &frame {
            Frame::Result { record, .. } => {
                record.l2_mpki.is_finite() && record.bandwidth_utilization.is_finite()
            }
            _ => true,
        };
        prop_assert!(parsed.is_ok() == decodable, "{:?}", parsed);
        if decodable {
            prop_assert_eq!(parsed.as_ref().ok(), Some(&line));
        }
        let mut scrambled = String::new();
        scramble(&tree(&frame), &mut g, &mut scrambled);
        prop_assert_eq!(Frame::parse(&scrambled).map(|f| f.to_line()), parsed);
    }
}

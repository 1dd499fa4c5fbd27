//! Property locks for trace serialization: a saved trace re-renders
//! byte-for-byte after a parse round-trip (both JSON styles, both trace
//! schemas), and the Chrome trace-event output is well-formed for spans
//! and for every disk-simulator event kind.

use rodb_trace::{EventKind, Json, SpanKind, TraceEvent, Tracer};
use rodb_types::SplitMix64;

const ALL_EVENT_KINDS: [EventKind; 9] = [
    EventKind::Burst,
    EventKind::ZoneSkip,
    EventKind::Retry,
    EventKind::Repair,
    EventKind::Quarantine,
    EventKind::DropRows,
    EventKind::CacheHit,
    EventKind::CacheEvict,
    EventKind::CachePrefetch,
];

const SPAN_KINDS: [SpanKind; 3] = [SpanKind::Scan, SpanKind::Agg, SpanKind::Phase];

/// Build a pseudo-random but deterministic trace: a handful of operator
/// spans with float and integral metrics, plus a spread of simulator
/// events drawing from every kind.
fn random_trace(seed: u64) -> rodb_trace::QueryTrace {
    let mut rng = SplitMix64::new(seed ^ 0x001a_ce0f_7e57);
    let tracer = Tracer::new();
    let nspans = 1 + rng.below(4) as usize;
    for i in 0..nspans {
        let kind = SPAN_KINDS[rng.below(SPAN_KINDS.len() as u64) as usize];
        let s = tracer.op_span(&format!("op{i}"), kind);
        tracer.add(s, rodb_trace::keys::ROWS, rng.below(100_000) as f64);
        tracer.add(s, rodb_trace::keys::CPU_TOTAL_S, rng.f64() * 3.0);
        tracer.set(s, "custom.fraction", rng.f64());
        if rng.bool() {
            // A nested phase child under this operator.
            let p = tracer.span(s, "decode", SpanKind::Phase);
            tracer.add(p, rodb_trace::keys::CPU_TOTAL_S, rng.f64());
        }
    }
    let sink = tracer.sink();
    let nevents = rng.below(64) as usize;
    for _ in 0..nevents {
        sink.borrow_mut().push(TraceEvent {
            ts_s: rng.f64() * 10.0,
            kind: ALL_EVENT_KINDS[rng.below(ALL_EVENT_KINDS.len() as u64) as usize],
            file: rng.below(4),
            page: rng.below(10_000),
            count: 1 + rng.below(512),
        });
    }
    tracer.finish()
}

/// `render → parse → render` is byte-stable for both the span schema and
/// the Chrome schema, in both pretty and compact styles, across many
/// random traces. This is what makes saved trace files diffable.
#[test]
fn rendered_traces_round_trip_byte_stable() {
    for seed in 0..40u64 {
        let trace = random_trace(seed);
        for json in [trace.to_json(), trace.to_chrome_json()] {
            let pretty = json.pretty();
            let reparsed = Json::parse(&pretty).expect("pretty output parses");
            assert_eq!(
                reparsed.pretty(),
                pretty,
                "pretty round-trip unstable (seed {seed})"
            );
            let compact = json.compact();
            let reparsed = Json::parse(&compact).expect("compact output parses");
            assert_eq!(
                reparsed.compact(),
                compact,
                "compact round-trip unstable (seed {seed})"
            );
            // Styles agree on content: pretty-parse == compact-parse.
            assert_eq!(
                Json::parse(&json.pretty()).unwrap().compact(),
                json.compact()
            );
        }
    }
}

/// `save` writes both schema files; each parses back to exactly the JSON
/// the in-memory trace renders.
#[test]
fn saved_trace_files_reparse_identically() {
    let trace = random_trace(0xfeed);
    let dir = std::env::temp_dir().join("rodb_json_roundtrip_test");
    let dir_s = dir.to_str().unwrap();
    let span_path = trace.save(dir_s, "case").unwrap();
    let span_text = std::fs::read_to_string(&span_path).unwrap();
    assert_eq!(span_text, trace.to_json().pretty());
    let chrome_text = std::fs::read_to_string(dir.join("case.chrome.json")).unwrap();
    assert_eq!(chrome_text, trace.to_chrome_json().pretty());
    assert_eq!(
        Json::parse(&span_text).unwrap().pretty(),
        trace.to_json().pretty()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every event kind renders as a well-formed Chrome instant event: the
/// right phase/name/track, microsecond timestamp, and args carrying the
/// simulator payload. Span nodes render as complete events with
/// non-negative durations that nest inside their parent.
#[test]
fn chrome_events_are_well_formed_for_every_kind() {
    let tracer = Tracer::new();
    let s = tracer.op_span("scan", SpanKind::Scan);
    tracer.add(s, rodb_trace::keys::CPU_TOTAL_S, 2.0);
    let p = tracer.span(s, "decode", SpanKind::Phase);
    tracer.add(p, rodb_trace::keys::CPU_TOTAL_S, 0.5);
    let sink = tracer.sink();
    for (i, kind) in ALL_EVENT_KINDS.iter().enumerate() {
        sink.borrow_mut().push(TraceEvent {
            ts_s: 0.25 * (i + 1) as f64,
            kind: *kind,
            file: 1,
            page: 10 * i as u64,
            count: i as u64 + 1,
        });
    }
    let trace = tracer.finish();
    let chrome = trace.to_chrome_json();
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let mut seen_instants = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("phase present");
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts present");
        assert!(ts >= 0.0 && ts.is_finite());
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
        match ph {
            "X" => {
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur on span");
                assert!(dur >= 0.0 && dur.is_finite());
            }
            "i" => {
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
                let args = e.get("args").expect("instant args");
                assert!(args.get("file").and_then(Json::as_f64).is_some());
                assert!(args.get("page").and_then(Json::as_f64).is_some());
                assert!(args.get("count").and_then(Json::as_f64).is_some());
                seen_instants.push(e.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Every kind appears exactly once, at its microsecond timestamp.
    for (i, kind) in ALL_EVENT_KINDS.iter().enumerate() {
        assert_eq!(
            seen_instants.iter().filter(|n| *n == kind.name()).count(),
            1,
            "kind {} missing or duplicated",
            kind.name()
        );
        let ev = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .find(|e| e.get("name").and_then(Json::as_str) == Some(kind.name()))
            .unwrap();
        let want = 0.25 * (i + 1) as f64 * 1e6;
        assert_eq!(
            ev.get("ts").and_then(Json::as_f64).unwrap().to_bits(),
            want.to_bits()
        );
    }
    // Child span durations stay inside their parent on the CPU track.
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let scan = spans
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("scan"))
        .unwrap();
    let decode = spans
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("decode"))
        .unwrap();
    let (s0, sd) = (
        scan.get("ts").and_then(Json::as_f64).unwrap(),
        scan.get("dur").and_then(Json::as_f64).unwrap(),
    );
    let (d0, dd) = (
        decode.get("ts").and_then(Json::as_f64).unwrap(),
        decode.get("dur").and_then(Json::as_f64).unwrap(),
    );
    assert!(d0 >= s0 && d0 + dd <= s0 + sd + 1e-6);
}

//! Metric exposition: Prometheus text format, a `rodb-top` text renderer,
//! and the shared [`MonitorState`] the HTTP endpoint serves from.
//!
//! [`prometheus`] maps a [`Registry`] snapshot to Prometheus text
//! exposition format 0.0.4: counters and gauges verbatim, log2-bucket
//! histograms as cumulative `_bucket{le=...}` series (bucket upper bounds
//! `2^(i+1)`, the `le_0` underflow bucket as `le="0"`) plus `_sum`,
//! `_count`, and the mandatory `le="+Inf"` bucket. Metric names are
//! sanitized (`.` → `_`, invalid chars → `_`) and prefixed `rodb_`.
//! [`check_exposition`] is the strict validator CI runs against the live
//! endpoint. [`render_top`] turns a `/status` document into the offline
//! `rodb-top` dashboard.
//!
//! [`MonitorState`] deliberately lives here, *outside* the `monitor`
//! feature gate: publishers (the query service) can always update a
//! snapshot handle; only the TCP listener in `crate::http` is gated.
//!
//! [`Registry`]: crate::metrics::Registry

use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Latest published snapshot for monitoring consumers.
#[derive(Debug)]
pub struct MonitorState {
    /// `/healthz`: true once the publisher is live and not wedged.
    pub healthy: bool,
    /// `/metrics` source: a `Registry::snapshot()` document.
    pub metrics: Json,
    /// `/status`: the service's report-so-far JSON.
    pub status: Json,
}

impl Default for MonitorState {
    fn default() -> MonitorState {
        MonitorState {
            healthy: false,
            metrics: Json::obj(),
            status: Json::obj(),
        }
    }
}

/// Shared handle a publisher updates and the endpoint/renderer read.
pub type MonitorHandle = Arc<Mutex<MonitorState>>;

/// A fresh (unhealthy, empty) monitor handle.
pub fn monitor_handle() -> MonitorHandle {
    Arc::new(Mutex::new(MonitorState::default()))
}

/// Sanitize a metric name to `[a-zA-Z0-9_:]` and prefix `rodb_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("rodb_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a `Registry::snapshot()` JSON document in Prometheus text
/// exposition format 0.0.4.
pub fn prometheus(snapshot: &Json) -> String {
    let mut out = String::new();
    let families = [("counters", "counter"), ("gauges", "gauge")];
    for (section, kind) in families {
        if let Some(map) = snapshot.get(section) {
            for (name, value) in map.flatten() {
                let pname = sanitize(&name);
                out.push_str(&format!("# TYPE {pname} {kind}\n"));
                out.push_str(&format!("{pname} {}\n", fmt_value(value)));
            }
        }
    }
    if let Some(Json::Obj(hists)) = snapshot.get("histograms") {
        for (name, h) in hists {
            let pname = sanitize(name);
            out.push_str(&format!("# TYPE {pname} histogram\n"));
            let mut cumulative = 0u64;
            for (upper, n) in bucket_pairs(h) {
                cumulative += n;
                out.push_str(&format!(
                    "{pname}_bucket{{le=\"{}\"}} {cumulative}\n",
                    fmt_value(upper)
                ));
            }
            let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let sum = h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
            out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {count}\n"));
            out.push_str(&format!("{pname}_sum {}\n", fmt_value(sum)));
            out.push_str(&format!("{pname}_count {count}\n"));
        }
    }
    out
}

/// Decode a `Histogram::to_json()` bucket map back to ascending
/// `(upper bound, count)` pairs (`le_0` → 0, `p2_i` → `2^(i+1)`).
fn bucket_pairs(h: &Json) -> Vec<(f64, u64)> {
    let mut pairs: Vec<(f64, u64)> = Vec::new();
    if let Some(Json::Obj(buckets)) = h.get("buckets") {
        for (label, n) in buckets {
            let n = n.as_f64().unwrap_or(0.0) as u64;
            if label == "le_0" {
                pairs.push((0.0, n));
            } else if let Some(idx) = label
                .strip_prefix("p2_")
                .and_then(|s| s.parse::<i32>().ok())
            {
                pairs.push((2.0f64.powi(idx + 1), n));
            }
        }
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs
}

/// Strictly validate Prometheus text exposition output: every sample line
/// must parse, reference a `# TYPE`-declared family, and histograms must
/// have monotone cumulative buckets ending in a `le="+Inf"` bucket that
/// equals `_count`. Returns the first problem found.
pub fn check_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // metric -> (last cumulative bucket, inf bucket, count)
    let mut hist: BTreeMap<String, (f64, Option<f64>, Option<f64>)> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or(format!("line {lineno}: bare TYPE"))?;
                    let kind = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE without kind"))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown type {kind}"));
                    }
                    types.insert(name.to_string(), kind.to_string());
                }
                Some("HELP") => {}
                _ => return Err(format!("line {lineno}: malformed comment: {line}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: comment without space: {line}"));
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(p) => p,
            None => return Err(format!("line {lineno}: no value: {line}")),
        };
        let value = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {lineno}: bad value {v}"))?,
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {lineno}: unterminated labels: {line}"))?;
                (n, Some(labels))
            }
            None => (name_part, None),
        };
        if name.is_empty()
            || name.starts_with(|c: char| c.is_ascii_digit())
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: invalid metric name {name}"));
        }
        // Resolve the declared family (histograms declare the base name).
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|b| types.get(*b).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        let declared = types
            .get(base)
            .ok_or(format!("line {lineno}: sample {name} has no # TYPE"))?;
        if declared == "histogram" {
            let entry = hist
                .entry(base.to_string())
                .or_insert((f64::MIN, None, None));
            if name.ends_with("_bucket") {
                let le = labels
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or(format!("line {lineno}: bucket without le label"))?;
                if le == "+Inf" {
                    entry.1 = Some(value);
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {lineno}: bad le {le}"))?;
                    if value < entry.0 {
                        return Err(format!(
                            "line {lineno}: {base} buckets not cumulative ({value} < {})",
                            entry.0
                        ));
                    }
                    entry.0 = value;
                }
            } else if name.ends_with("_count") {
                entry.2 = Some(value);
            }
        } else if labels.is_some() {
            // This renderer never emits labels outside histogram buckets.
            return Err(format!("line {lineno}: unexpected labels on {name}"));
        }
    }
    for (base, (last, inf, count)) in &hist {
        let inf = inf.ok_or(format!("{base}: missing le=\"+Inf\" bucket"))?;
        let count = count.ok_or(format!("{base}: missing _count"))?;
        if inf != count {
            return Err(format!("{base}: +Inf bucket {inf} != _count {count}"));
        }
        if *last != f64::MIN && *last > inf {
            return Err(format!("{base}: bucket {last} exceeds +Inf {inf}"));
        }
    }
    Ok(())
}

fn fmt_cell(v: Option<&Json>) -> String {
    match v.and_then(Json::as_f64) {
        Some(x) if x == x.trunc() && x.abs() < 1e15 => format!("{}", x as i64),
        Some(x) => format!("{x:.4}"),
        None => "-".to_string(),
    }
}

/// Render a `/status` document as the offline `rodb-top` text dashboard:
/// a service summary, the per-tenant SLO table, and the tail of the
/// per-window timeline (throughput / p95 / cache hits).
pub fn render_top(status: &Json) -> String {
    let mut out = String::new();
    out.push_str("rodb-top — service snapshot\n");
    if let Some(svc) = status.get("service") {
        out.push_str(&format!(
            "clock {:>8}s  completed {:>6}  inflight {:>3}  queued {:>3}  rejected {:>4}  \
             deadline-missed {:>4}\n",
            fmt_cell(svc.get("clock_s")),
            fmt_cell(svc.get("completed")),
            fmt_cell(svc.get("inflight")),
            fmt_cell(svc.get("queued")),
            fmt_cell(svc.get("rejected")),
            fmt_cell(svc.get("deadline_missed")),
        ));
    }
    if let Some(fairness) = status.get("fairness").and_then(Json::as_f64) {
        out.push_str(&format!("fairness (Jain) {fairness:.4}\n"));
    }
    if let Some(tenants) = status.get("tenants").and_then(Json::as_arr) {
        out.push_str("\nTENANT            done  rej  miss   p50_s     p95_s     share\n");
        for t in tenants {
            out.push_str(&format!(
                "{:<16} {:>5} {:>4} {:>5}  {:>8}  {:>8}  {:>7}\n",
                t.get("tenant").and_then(Json::as_str).unwrap_or("?"),
                fmt_cell(t.get("completed")),
                fmt_cell(t.get("rejected")),
                fmt_cell(t.get("deadline_missed")),
                fmt_cell(t.get("latency_p50_s")),
                fmt_cell(t.get("latency_p95_s")),
                fmt_cell(t.get("share")),
            ));
        }
    }
    if let Some(windows) = status
        .get("timeline")
        .and_then(|t| t.get("windows"))
        .and_then(Json::as_arr)
    {
        out.push_str("\nWINDOW     t0_s   done  p95_lat_s  cache_hit\n");
        let tail = windows.len().saturating_sub(12);
        for w in &windows[tail..] {
            let counters = w.get("counters");
            let hists = w.get("histograms");
            let hits = counters
                .and_then(|c| c.get("service.cache.hits"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let misses = counters
                .and_then(|c| c.get("service.cache.misses"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let hit_rate = if hits + misses > 0.0 {
                format!("{:>9.3}", hits / (hits + misses))
            } else {
                format!("{:>9}", "-")
            };
            out.push_str(&format!(
                "{:>6} {:>8} {:>6}  {:>9}  {hit_rate}\n",
                fmt_cell(w.get("window")),
                fmt_cell(w.get("t0_s")),
                fmt_cell(counters.and_then(|c| c.get("service.completed"))),
                fmt_cell(
                    hists
                        .and_then(|h| h.get("service.latency_s"))
                        .and_then(|h| h.get("p95"))
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn sanitizes_and_prefixes_names() {
        assert_eq!(
            sanitize("query.sched.completed"),
            "rodb_query_sched_completed"
        );
        assert_eq!(sanitize("a-b c"), "rodb_a_b_c");
    }

    #[test]
    fn exposition_round_trips_through_the_checker() {
        let reg = Registry::new();
        reg.counter_add("query.runs", 3.0);
        reg.gauge_set("sched.queue_depth", 7.0);
        for v in [0.5, 1.5, 3.0, 0.0, 12.0] {
            reg.observe("query.latency_s", v);
        }
        let text = prometheus(&reg.snapshot());
        check_exposition(&text).expect("renderer output must validate");
        assert!(text.contains("# TYPE rodb_query_runs counter\nrodb_query_runs 3\n"));
        assert!(text.contains("# TYPE rodb_sched_queue_depth gauge\nrodb_sched_queue_depth 7\n"));
        assert!(text.contains("rodb_query_latency_s_count 5\n"));
        assert!(text.contains("rodb_query_latency_s_sum 17\n"));
        assert!(text.contains("rodb_query_latency_s_bucket{le=\"+Inf\"} 5\n"));
        // Cumulative buckets: le="0" holds the one zero observation.
        assert!(text.contains("rodb_query_latency_s_bucket{le=\"0\"} 1\n"));
    }

    #[test]
    fn checker_rejects_malformed_expositions() {
        assert!(check_exposition("rodb_x 1\n").is_err(), "no TYPE");
        assert!(
            check_exposition("# TYPE rodb_x counter\nrodb_x\n").is_err(),
            "no value"
        );
        assert!(
            check_exposition("# TYPE rodb_x counter\nrodb_x abc\n").is_err(),
            "bad value"
        );
        assert!(
            check_exposition("# TYPE 9x counter\n9x 1\n").is_err(),
            "bad name"
        );
        let no_inf =
            "# TYPE rodb_h histogram\nrodb_h_bucket{le=\"1\"} 2\nrodb_h_sum 2\nrodb_h_count 2\n";
        assert!(check_exposition(no_inf).is_err(), "missing +Inf");
        let not_cumulative = "# TYPE rodb_h histogram\nrodb_h_bucket{le=\"1\"} 5\n\
                              rodb_h_bucket{le=\"2\"} 3\nrodb_h_bucket{le=\"+Inf\"} 5\n\
                              rodb_h_sum 1\nrodb_h_count 5\n";
        assert!(check_exposition(not_cumulative).is_err(), "not cumulative");
        let inf_mismatch = "# TYPE rodb_h histogram\nrodb_h_bucket{le=\"+Inf\"} 4\n\
                            rodb_h_sum 1\nrodb_h_count 5\n";
        assert!(check_exposition(inf_mismatch).is_err(), "+Inf != count");
        assert!(check_exposition("").is_ok(), "empty exposition is valid");
    }

    #[test]
    fn top_renders_service_tenants_and_timeline() {
        let status = Json::obj()
            .set(
                "service",
                Json::obj()
                    .set("clock_s", 12.5)
                    .set("completed", 40u64)
                    .set("inflight", 2u64)
                    .set("queued", 1u64)
                    .set("rejected", 3u64)
                    .set("deadline_missed", 4u64),
            )
            .set("fairness", 0.9876)
            .set(
                "tenants",
                vec![Json::obj()
                    .set("tenant", "acme")
                    .set("completed", 40u64)
                    .set("rejected", 3u64)
                    .set("deadline_missed", 4u64)
                    .set("latency_p50_s", 0.25)
                    .set("latency_p95_s", 1.5)
                    .set("share", 1.0)],
            )
            .set(
                "timeline",
                Json::obj().set("window_s", 1.0).set(
                    "windows",
                    vec![Json::obj()
                        .set("window", 0u64)
                        .set("t0_s", 0.0)
                        .set(
                            "counters",
                            Json::obj()
                                .set("service.completed", 40u64)
                                .set("service.cache.hits", 30u64)
                                .set("service.cache.misses", 10u64),
                        )
                        .set(
                            "histograms",
                            Json::obj().set("service.latency_s", Json::obj().set("p95", 1.5)),
                        )],
                ),
            );
        let text = render_top(&status);
        assert!(text.contains("rodb-top"));
        assert!(text.contains("acme"));
        assert!(text.contains("fairness (Jain) 0.9876"));
        assert!(text.contains("0.25"), "tenant p50 rendered:\n{text}");
        assert!(text.contains("0.750"), "cache hit rate rendered:\n{text}");
    }
}

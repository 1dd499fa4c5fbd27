//! Std-only blocking HTTP monitoring endpoint (feature `monitor`).
//!
//! A [`MonitorServer`] owns one `TcpListener` and a single accept-loop
//! thread serving three GET routes from a shared [`MonitorHandle`]:
//!
//! - `/metrics` — Prometheus text exposition 0.0.4 of the last published
//!   registry snapshot ([`crate::expo::prometheus`]);
//! - `/healthz` — `200 ok` once the publisher marked itself healthy,
//!   `503 unhealthy` before/after;
//! - `/status`  — the publisher's report-so-far JSON, pretty-printed.
//!
//! Zero external crates, feature-gated, and **off by default**: nothing in
//! the workspace builds this module unless `rodb-trace/monitor` is enabled
//! (the bench harness turns it on; library consumers never pay for it).
//! The server thread reads *published snapshots* only — it shares no state
//! with the simulation, so serving requests cannot perturb modeled clocks.
//!
//! Connections are handled serially with short socket timeouts: this is an
//! operator scrape port (one curl / Prometheus poll at a time), not a data
//! path, and serial handling keeps it dependency- and thread-pool-free.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::expo::{self, MonitorHandle, MonitorState};

/// Cap on request bytes read (method + path + headers); enough for any
/// scraper, small enough that a garbage client cannot balloon memory.
const MAX_REQUEST: usize = 8192;

/// A running monitoring endpoint; stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct MonitorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MonitorServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9100"`, or port `0` to let the OS
    /// pick — see [`MonitorServer::local_addr`]) and serve `handle` until
    /// stopped or dropped.
    pub fn start(addr: &str, handle: MonitorHandle) -> std::io::Result<MonitorServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rodb-monitor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // A slow or broken client only costs its own
                        // request; errors never take the server down.
                        let _ = serve_conn(stream, &handle);
                    }
                }
            })?;
        Ok(MonitorServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop and join the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // The accept loop is blocked in `incoming()`; poke it awake.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The published state. Publishers replace whole fields, so a guard
/// poisoned by a panicking holder still holds values worth serving; the
/// server reads through the poison rather than dying on it.
fn state(handle: &MonitorHandle) -> MutexGuard<'_, MonitorState> {
    handle.lock().unwrap_or_else(PoisonError::into_inner)
}

fn serve_conn(mut stream: TcpStream, handle: &MonitorHandle) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until end of headers; the routes take no body.
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/healthz" => {
                let healthy = state(handle).healthy;
                if healthy {
                    ("200 OK", "text/plain", "ok\n".to_string())
                } else {
                    (
                        "503 Service Unavailable",
                        "text/plain",
                        "unhealthy\n".to_string(),
                    )
                }
            }
            "/metrics" => {
                let text = expo::prometheus(&state(handle).metrics);
                ("200 OK", "text/plain; version=0.0.4", text)
            }
            "/status" => {
                let text = state(handle).status.pretty();
                ("200 OK", "application/json", text)
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::monitor_handle;
    use crate::json::Json;
    use crate::metrics::Registry;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_healthz_and_status() {
        let handle = monitor_handle();
        let reg = Registry::new();
        reg.counter_add("query.runs", 2.0);
        reg.observe("query.latency_s", 0.75);
        {
            let mut state = handle.lock().unwrap();
            state.healthy = true;
            state.metrics = reg.snapshot();
            state.status = Json::obj().set("service", Json::obj().set("completed", 2u64));
        }
        let server = MonitorServer::start("127.0.0.1:0", Arc::clone(&handle)).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        expo::check_exposition(&body).expect("live exposition must validate");
        assert!(body.contains("rodb_query_runs 2\n"), "{body}");

        let (head, body) = get(addr, "/status");
        assert!(head.contains("application/json"), "{head}");
        let parsed = Json::parse(&body).expect("status must be valid JSON");
        assert_eq!(
            parsed
                .get("service")
                .and_then(|s| s.get("completed"))
                .and_then(Json::as_f64),
            Some(2.0)
        );

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Publishers update the handle; the next scrape sees it.
        handle.lock().unwrap().healthy = false;
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body, "unhealthy\n");

        server.stop();
    }

    #[test]
    fn a_poisoned_handle_still_serves_every_route() {
        let handle = monitor_handle();
        let reg = Registry::new();
        reg.counter_add("query.runs", 1.0);
        {
            let mut state = handle.lock().unwrap();
            state.healthy = true;
            state.metrics = reg.snapshot();
            state.status = Json::obj().set("service", Json::obj());
        }
        let poisoner = Arc::clone(&handle);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("publisher dies holding the monitor lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(handle.is_poisoned());

        let server = MonitorServer::start("127.0.0.1:0", Arc::clone(&handle)).unwrap();
        let addr = server.local_addr();
        // Twice over: the first round must not have taken the loop down.
        for _ in 0..2 {
            let (head, body) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(body, "ok\n");
            let (head, body) = get(addr, "/metrics");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("rodb_query_runs 1\n"), "{body}");
            let (head, body) = get(addr, "/status");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(Json::parse(&body).is_ok(), "{body}");
        }
        server.stop();
    }

    #[test]
    fn rejects_non_get_methods() {
        let server = MonitorServer::start("127.0.0.1:0", monitor_handle()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}

//! A deterministic TCP fault-injection proxy for exercising the serving
//! tier's retry, breaker, and hedge paths on the wire.
//!
//! PR 4's [`privim_obs::FaultPlan`] injects faults *inside* the process
//! at named fault points; this proxy extends the same discipline to the
//! network: every accepted connection draws its fault verdict from
//! splitmix64 of `(seed, connection index)` — the same derivation
//! grammar `FaultPlan::from_seed` uses for fire points — so a chaos run
//! at a fixed seed replays the identical fault sequence every time.
//!
//! ```text
//!   client ──▶ chaos proxy ──▶ upstream replica
//!                  │
//!                  └─ per-connection verdict: pass through, drop the
//!                     request after N bytes, delay the response, cut
//!                     the response short, flip a status-line byte, or
//!                     reset the connection outright
//! ```
//!
//! Faults are chosen so that *every* injected failure is visible to the
//! HTTP client as a transport or framing error — never as a silently
//! wrong body. The byte flip targets the response status line (the
//! first 8 bytes, `HTTP/1.1`), which cannot survive the client's
//! version check; truncation and request drops cut inside the head,
//! which cannot parse. That is what lets the chaos CI gate demand
//! byte-identical responses under ≥10 % fault rates: a faulted attempt
//! always fails loudly and is retried, and only clean attempts produce
//! bytes the client ever sees.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use privim_obs::fault::splitmix64;

/// Read/write timeout on proxied sockets so pump threads always exit.
const PUMP_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection's fault verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Forward faithfully in both directions.
    None,
    /// Forward only the first `n` request bytes upstream, then cut the
    /// connection (`n` < any request head, so the request never parses).
    DropRequestAfter(u64),
    /// Sleep this many milliseconds before forwarding the first response
    /// bytes (tail-latency injection; the bytes themselves are intact).
    DelayResponseMs(u64),
    /// Forward only the first `n` response bytes, then cut (torn head).
    TruncateResponse(u64),
    /// XOR the response byte at this offset with `0xFF`. Offsets are
    /// confined to `0..8` — inside the `HTTP/1.1` version token — so the
    /// corruption always fails the client's parse instead of reaching
    /// an application body.
    FlipStatusByte(u64),
    /// Accept, wait for the first request byte, then reset: the socket
    /// is dropped with unread data pending, which makes the kernel send
    /// RST rather than FIN.
    Rst,
}

impl WireFault {
    /// Metric/label name for this fault kind.
    pub fn label(self) -> &'static str {
        match self {
            WireFault::None => "none",
            WireFault::DropRequestAfter(_) => "drop_request",
            WireFault::DelayResponseMs(_) => "delay_response",
            WireFault::TruncateResponse(_) => "truncate_response",
            WireFault::FlipStatusByte(_) => "flip_status_byte",
            WireFault::Rst => "rst",
        }
    }
}

/// The deterministic verdict for connection `conn_index` under `seed`:
/// a uniform draw in `[0, 1)` from splitmix64 decides *whether* to
/// fault (against `fault_rate`), a second draw picks the kind, a third
/// its parameter. Identical `(seed, conn_index, fault_rate)` always
/// yields the identical fault — the property the chaos CI gate replays.
pub fn fault_for_conn(seed: u64, conn_index: u64, fault_rate: f64) -> WireFault {
    let h = splitmix64(seed ^ splitmix64(conn_index.wrapping_add(1)));
    // Top 53 bits → uniform f64 in [0, 1).
    let roll = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if roll >= fault_rate {
        return WireFault::None;
    }
    let kind = splitmix64(h ^ 0x000C_4A05);
    let param = splitmix64(kind);
    match kind % 5 {
        // ≤ 32 bytes: strictly inside any request head (the request
        // line alone is longer), so the upstream never sees a full
        // request and the client always sees a hard failure.
        0 => WireFault::DropRequestAfter(1 + param % 32),
        1 => WireFault::DelayResponseMs(5 + param % 45),
        // ≤ 32 bytes: strictly inside any response head.
        2 => WireFault::TruncateResponse(1 + param % 32),
        3 => WireFault::FlipStatusByte(param % 8),
        _ => WireFault::Rst,
    }
}

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Listen address (port 0 picks a free port).
    pub listen: String,
    /// Upstream replica address.
    pub upstream: String,
    /// Fault-plan seed.
    pub seed: u64,
    /// Fraction of connections faulted, in `[0, 1]`.
    pub fault_rate: f64,
}

/// A running proxy; connection pumps are detached threads bounded by
/// socket timeouts, the acceptor joins on [`ChaosProxy::shutdown`].
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
}

impl ChaosProxy {
    /// Binds `config.listen` and starts proxying to `config.upstream`.
    pub fn start(config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let upstream = crate::server::resolve_addr(&config.upstream)?;
        let (seed, fault_rate) = (config.seed, config.fault_rate);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("chaos-acceptor".into())
                .spawn(move || accept_loop(listener, upstream, seed, fault_rate, &stop))?
        };
        privim_obs::info!(
            "chaos",
            "proxy_listening",
            addr = addr.to_string(),
            upstream = upstream.to_string(),
            seed = seed,
            fault_rate = fault_rate,
        );
        Ok(ChaosProxy {
            addr,
            stop,
            acceptor,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the acceptor; in-flight pumps drain on
    /// their own socket timeouts.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    seed: u64,
    fault_rate: f64,
    stop: &AtomicBool,
) {
    let conn_index = AtomicU64::new(0);
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let index = conn_index.fetch_add(1, Ordering::Relaxed);
                let fault = fault_for_conn(seed, index, fault_rate);
                privim_obs::counter("chaos.connections").add(1);
                if fault != WireFault::None {
                    privim_obs::counter("chaos.faults").add(1);
                    privim_obs::counter(&format!("chaos.fault.{}", fault.label())).add(1);
                    if privim_obs::span_export_armed() {
                        // Stamp the injected fault into the span feed so
                        // tier traces show *why* an attempt failed. The
                        // proxy cannot see which request rides the
                        // connection (it faults bytes, not HTTP), so the
                        // span roots its own deterministic trace keyed
                        // by (seed, connection index).
                        let ctx = privim_obs::TraceContext::from_request_id(&format!(
                            "chaos-{seed}-{index}"
                        ));
                        privim_obs::export_finished_span(
                            "chaos.fault",
                            &ctx,
                            privim_obs::now_micros(),
                            0,
                            vec![
                                ("fault".to_string(), fault.label().to_string()),
                                ("conn".to_string(), index.to_string()),
                            ],
                        );
                    }
                }
                privim_obs::debug!("chaos", "connection", index = index, fault = fault.label(),);
                let _ = std::thread::Builder::new()
                    .name(format!("chaos-conn-{index}"))
                    .spawn(move || handle_conn(client, upstream, fault));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Per-direction pump options derived from the connection's fault.
#[derive(Debug, Clone, Copy, Default)]
struct PumpFault {
    /// Stop after forwarding this many bytes (then cut the connection).
    limit: Option<u64>,
    /// Sleep before forwarding the first chunk.
    delay: Option<Duration>,
    /// XOR the byte at this stream offset with `0xFF`.
    flip: Option<u64>,
}

fn handle_conn(client: TcpStream, upstream_addr: SocketAddr, fault: WireFault) {
    if fault == WireFault::Rst {
        // Wait for request bytes, then drop the socket with them unread:
        // the pending data turns the close into an RST.
        let _ = client.set_read_timeout(Some(Duration::from_millis(500)));
        let mut byte = [0u8; 1];
        let _ = client.peek(&mut byte);
        return;
    }
    let Ok(upstream) = TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(5)) else {
        return;
    };
    for stream in [&client, &upstream] {
        let _ = stream.set_read_timeout(Some(PUMP_TIMEOUT));
        let _ = stream.set_write_timeout(Some(PUMP_TIMEOUT));
        // Forward each chunk immediately; Nagle would stack its delay on
        // top of every proxied hop.
        let _ = stream.set_nodelay(true);
    }
    let (up_fault, down_fault) = match fault {
        WireFault::DropRequestAfter(n) => (
            PumpFault {
                limit: Some(n),
                ..PumpFault::default()
            },
            PumpFault::default(),
        ),
        WireFault::DelayResponseMs(ms) => (
            PumpFault::default(),
            PumpFault {
                delay: Some(Duration::from_millis(ms)),
                ..PumpFault::default()
            },
        ),
        WireFault::TruncateResponse(n) => (
            PumpFault::default(),
            PumpFault {
                limit: Some(n),
                ..PumpFault::default()
            },
        ),
        WireFault::FlipStatusByte(offset) => (
            PumpFault::default(),
            PumpFault {
                flip: Some(offset),
                ..PumpFault::default()
            },
        ),
        WireFault::None | WireFault::Rst => (PumpFault::default(), PumpFault::default()),
    };
    let down = {
        let (Ok(upstream), Ok(client)) = (upstream.try_clone(), client.try_clone()) else {
            return;
        };
        std::thread::Builder::new()
            .name("chaos-pump-down".into())
            .spawn(move || pump(upstream, client, down_fault))
    };
    pump(client, upstream, up_fault);
    if let Ok(handle) = down {
        let _ = handle.join();
    }
}

/// Copies `from` → `to` applying `fault`; on EOF, error, or an exhausted
/// byte budget, cuts both sockets so the opposite pump unblocks too.
fn pump(mut from: TcpStream, mut to: TcpStream, fault: PumpFault) {
    let mut forwarded: u64 = 0;
    let mut first = true;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if first {
            if let Some(delay) = fault.delay {
                std::thread::sleep(delay);
            }
            first = false;
        }
        if let Some(offset) = fault.flip {
            if offset >= forwarded && offset < forwarded + n as u64 {
                buf[(offset - forwarded) as usize] ^= 0xFF;
            }
        }
        let take = match fault.limit {
            Some(limit) => ((limit - forwarded).min(n as u64)) as usize,
            None => n,
        };
        if take > 0 && to.write_all(&buf[..take]).is_err() {
            break;
        }
        forwarded += take as u64;
        if fault.limit.is_some_and(|limit| forwarded >= limit) {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::http::{Request, Response};
    use crate::server::{Handler, Server, ServerConfig};

    #[test]
    fn fault_verdicts_are_deterministic_and_rate_bounded() {
        for conn in 0..50 {
            assert_eq!(
                fault_for_conn(42, conn, 0.3),
                fault_for_conn(42, conn, 0.3),
                "same (seed, conn, rate) must agree"
            );
            assert_eq!(fault_for_conn(42, conn, 0.0), WireFault::None);
            assert_ne!(fault_for_conn(42, conn, 1.0), WireFault::None);
        }
        let faulted = (0..400)
            .filter(|&c| fault_for_conn(7, c, 0.25) != WireFault::None)
            .count();
        assert!(
            (60..=140).contains(&faulted),
            "≈25 % of 400 connections should fault, got {faulted}"
        );
        // All five kinds appear at full rate.
        let kinds: std::collections::BTreeSet<&'static str> = (0..200)
            .map(|c| fault_for_conn(99, c, 1.0).label())
            .collect();
        assert_eq!(kinds.len(), 5, "{kinds:?}");
    }

    #[test]
    fn fault_parameters_stay_inside_head_bounds() {
        for conn in 0..500 {
            match fault_for_conn(3, conn, 1.0) {
                WireFault::DropRequestAfter(n) | WireFault::TruncateResponse(n) => {
                    assert!((1..=32).contains(&n), "cut at {n} could leak a full head")
                }
                WireFault::FlipStatusByte(off) => {
                    assert!(off < 8, "flip at {off} could escape the version token")
                }
                WireFault::DelayResponseMs(ms) => assert!((5..=50).contains(&ms)),
                WireFault::None | WireFault::Rst => {}
            }
        }
    }

    fn echo_server() -> Server {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| match req.route() {
            "/echo" => Response::json(200, req.body.clone()),
            _ => Response::text(200, "pong"),
        });
        Server::start(
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                ..ServerConfig::default()
            },
            handler,
        )
        .expect("bind upstream")
    }

    #[test]
    fn passthrough_is_byte_identical_to_a_direct_connection() {
        let upstream = echo_server();
        let proxy = ChaosProxy::start(ChaosConfig {
            listen: "127.0.0.1:0".into(),
            upstream: upstream.local_addr().to_string(),
            seed: 1,
            fault_rate: 0.0,
        })
        .unwrap();
        let mut direct = HttpClient::connect(upstream.local_addr()).unwrap();
        let mut proxied = HttpClient::connect(proxy.local_addr()).unwrap();
        for i in 0..5 {
            let body = format!("{{\"i\":{i}}}");
            let d = direct.post("/echo", body.as_bytes()).unwrap();
            let p = proxied.post("/echo", body.as_bytes()).unwrap();
            assert_eq!(d.status, p.status);
            assert_eq!(d.body, p.body, "proxied bytes must match direct bytes");
        }
        // Close the kept-alive sockets so the upstream drains promptly.
        drop(direct);
        drop(proxied);
        proxy.shutdown();
        upstream.shutdown();
    }

    /// One raw request/response exchange: exactly one proxy connection,
    /// so the connection index lines up 1:1 with the request (an
    /// `HttpClient` would blur that with its stale-socket resend).
    fn raw_exchange(addr: SocketAddr) -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        s.set_write_timeout(Some(Duration::from_secs(2)))?;
        s.write_all(
            b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
              Content-Length: 7\r\nConnection: close\r\n\r\n{\"i\":1}",
        )?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if buf.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(buf)
    }

    #[test]
    fn every_injected_fault_fails_loudly_except_delay() {
        let upstream = echo_server();
        let proxy = ChaosProxy::start(ChaosConfig {
            listen: "127.0.0.1:0".into(),
            upstream: upstream.local_addr().to_string(),
            seed: 1234,
            fault_rate: 1.0,
        })
        .unwrap();
        let complete = |b: &[u8]| b.starts_with(b"HTTP/1.1 200") && b.ends_with(b"{\"i\":1}");
        let mut hard_faults = 0;
        for conn in 0..12u64 {
            let expected = fault_for_conn(1234, conn, 1.0);
            let outcome = raw_exchange(proxy.local_addr());
            match expected {
                WireFault::None => unreachable!("rate 1.0 faults every connection"),
                WireFault::DelayResponseMs(_) => {
                    let bytes = outcome.unwrap_or_else(|e| {
                        panic!("conn {conn}: delay must still answer, got {e}")
                    });
                    assert!(complete(&bytes), "delayed bytes must be intact");
                }
                WireFault::TruncateResponse(n) => {
                    hard_faults += 1;
                    if let Ok(bytes) = outcome {
                        assert!(
                            bytes.len() as u64 <= n,
                            "conn {conn}: truncation must cut inside the head"
                        );
                    }
                }
                WireFault::FlipStatusByte(_) => {
                    hard_faults += 1;
                    if let Ok(bytes) = outcome {
                        assert!(
                            !bytes.starts_with(b"HTTP/1.1 "),
                            "conn {conn}: the flip must land in the version token"
                        );
                    }
                }
                WireFault::DropRequestAfter(_) | WireFault::Rst => {
                    hard_faults += 1;
                    if let Ok(bytes) = outcome {
                        assert!(
                            bytes.is_empty(),
                            "conn {conn}: a dropped request must never be answered"
                        );
                    }
                }
            }
        }
        assert!(hard_faults > 0, "seed 1234 should inject hard faults");
        // The upstream stays healthy throughout: a clean client works.
        let mut direct = HttpClient::connect(upstream.local_addr()).unwrap();
        assert_eq!(direct.post("/echo", b"{}").unwrap().status, 200);
        drop(direct);
        proxy.shutdown();
        upstream.shutdown();
    }
}

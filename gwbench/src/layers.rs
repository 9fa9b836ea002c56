//! Per-layer probes of a traced run that need no sockets: the
//! workload's requests replayed through `ShardedBridge::dispatch` /
//! `drain_into`, and the MDL codecs timed on every message of the two
//! deployed bridges. Also the HTTP scrape of the served endpoint.

use crate::check::Checker;
use crate::procfs;
use crate::rig::{engine_config, launch_shards, loaded_registry};
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload, BRIDGE_HOST, DNS_TYPE, UPNP_TYPE};
use starlink_core::{ShardInput, ShardOutput};
use starlink_net::{Bytes, Datagram, SimAddr, SimTime};
use starlink_protocols::{http, mdns, slp, ssdp};
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

/// Sessions dispatched per in-process batch.
const BATCH: usize = 64;

/// One in-process replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Wall µs per session, dispatch to drained reply.
    pub wall_us: f64,
    /// Shard worker on-CPU µs per session.
    pub worker_us: f64,
}

/// Replays the workload's first `count` SrvRqsts through a freshly
/// deployed one-shard bridge with no sockets, in batches, checking
/// every reply.
pub fn replay(
    workload: &Workload,
    inputs: &Inputs,
    count: usize,
    force_interpreted: bool,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut registry = loaded_registry(tracer, 0)?;
    let (engines, _) = registry
        .deploy_sharded(workload.case.build(BRIDGE_HOST), engine_config(force_interpreted), 1)
        .map_err(|e| format!("deploy: {e}"))?;
    let (mut bridge, workers) = launch_shards(engines, workload.case, inputs, tracer, 0);
    let client = SimAddr::new("127.0.0.1", 40_000);
    let to = SimAddr::new(BRIDGE_HOST, slp::SLP_PORT);
    let requests: Vec<Bytes> =
        (0..count).map(|k| Bytes::copy_from_slice(&inputs.request(k))).collect();
    let mut checker = Checker::new(&inputs.expected_url, inputs.xid_base, 0, count);
    let mut out = Vec::with_capacity(BATCH);

    let cpu0 = procfs::CpuSnapshot::take();
    let t0 = Instant::now();
    let mut tick = 0u64;
    for chunk in requests.chunks(BATCH) {
        let inputs = chunk.iter().map(|payload| {
            ShardInput::Datagram(Datagram {
                from: client.clone(),
                to: to.clone(),
                payload: payload.clone(),
            })
        });
        let expect = checker.completed() + chunk.len();
        tick += 1;
        tracer.call("shard.dispatch", 0, || {
            bridge.dispatch(SimTime::from_micros(tick * 1_000), inputs);
            bridge.flush();
        });
        // Chains finish their in-simulation legs as the clock moves.
        for _ in 0..8 {
            tracer.call("shard.drain_into", 0, || bridge.drain_into(&mut out));
            for (_, output) in out.drain(..) {
                if let ShardOutput::Datagram(reply) = output {
                    checker.on_reply(&reply.payload);
                }
            }
            if checker.completed() >= expect {
                break;
            }
            tick += 1;
            bridge.advance(SimTime::from_micros(tick * 1_000));
            bridge.flush();
        }
    }
    let wall = t0.elapsed();
    let (worker_ns, _) = procfs::CpuSnapshot::take().delta(&cpu0, &workers);
    if checker.completed() != count {
        return Err(format!(
            "in-process replay completed {} of {count}: {:?}",
            checker.completed(),
            checker.problems()
        ));
    }
    Ok(Replay {
        wall_us: wall.as_secs_f64() * 1e6 / count as f64,
        worker_us: worker_ns as f64 / 1e3 / count as f64,
    })
}

/// Every message the two deployed bridges parse or compose, as MDL
/// message type, protocol, and wire bytes from the protocol's own
/// reference encoder.
pub fn messages(inputs: &Inputs) -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let url_base = format!("http://{}:{}", inputs.service_host, http::UPNP_HTTP_PORT);
    let location = format!("{url_base}/desc.xml");
    vec![
        ("SLPSrvRequest", "SLP", inputs.request(0)),
        (
            "SLPSrvReply",
            "SLP",
            slp::encode(&slp::SlpMessage::SrvRply(slp::SrvRply::new(
                1,
                inputs.bonjour_url.clone(),
            ))),
        ),
        (
            "DNS_Question",
            "DNS",
            mdns::encode(&mdns::DnsMessage::Question(mdns::DnsQuestion::new(1, DNS_TYPE)))
                .expect("a DNS question encodes"),
        ),
        (
            "DNS_Response",
            "DNS",
            mdns::encode(&mdns::DnsMessage::Response(mdns::DnsResponse::new(
                1,
                DNS_TYPE,
                inputs.bonjour_url.clone(),
            )))
            .expect("a DNS response encodes"),
        ),
        (
            "SSDP_M-Search",
            "SSDP",
            ssdp::encode(&ssdp::SsdpMessage::MSearch(ssdp::MSearch::new(UPNP_TYPE))),
        ),
        (
            "SSDP_Resp",
            "SSDP",
            ssdp::encode(&ssdp::SsdpMessage::Response(ssdp::SsdpResponse::new(
                UPNP_TYPE,
                format!("uuid:device-{}", inputs.service_host),
                location,
            ))),
        ),
        (
            "HTTP_GET",
            "HTTP",
            http::encode(&http::HttpMessage::Get(http::HttpGet::new(
                "/desc.xml",
                format!("{}:{}", inputs.service_host, http::UPNP_HTTP_PORT),
            ))),
        ),
        (
            "HTTP_OK",
            "HTTP",
            http::encode(&http::HttpMessage::Ok(http::HttpOk::xml(http::device_description(
                &url_base, UPNP_TYPE,
            )))),
        ),
    ]
}

/// Median ns per parse and per compose of each message in
/// [`messages`], over `rounds` rounds of `per_round` calls.
pub fn codec_ns(
    inputs: &Inputs,
    rounds: usize,
    per_round: usize,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64, f64)>, String> {
    let registry = loaded_registry(tracer, 0)?;
    let mut out = Vec::new();
    for (name, protocol, wire) in messages(inputs) {
        let codec = registry.framework().codec(protocol).ok_or(format!("no {protocol} codec"))?;
        let parsed = codec.parse(&wire).map_err(|e| format!("{name}: parse: {e}"))?;
        if parsed.name() != name {
            return Err(format!("{name} parsed as {}", parsed.name()));
        }
        let mut buf = Vec::new();
        let mut parse = Vec::with_capacity(rounds);
        let mut compose = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            tracer.call("mdl.parse", 0, || {
                for _ in 0..per_round {
                    std::hint::black_box(codec.parse(std::hint::black_box(&wire)).ok());
                }
            });
            parse.push(t.elapsed().as_nanos() as f64 / per_round as f64);
            let t = Instant::now();
            tracer.call("mdl.compose", 0, || {
                for _ in 0..per_round {
                    buf.clear();
                    std::hint::black_box(
                        codec.compose_into(std::hint::black_box(&parsed), &mut buf).ok(),
                    );
                }
            });
            compose.push(t.elapsed().as_nanos() as f64 / per_round as f64);
        }
        out.push((name, crate::stats::median(&mut parse), crate::stats::median(&mut compose)));
    }
    Ok(out)
}

/// One `GET /metrics` to the served endpoint: wall time and body size.
pub fn http_scrape(port: u16) -> Result<(Duration, usize), String> {
    let t = Instant::now();
    let mut stream =
        std::net::TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    stream.read_to_end(&mut body).map_err(|e| e.to_string())?;
    Ok((t.elapsed(), body.len()))
}

//! Deploys one workload's bridge the way an operator does: every MDL
//! source through the registry gate, a gated sharded deployment, the
//! shard workers, the socket gateway, and its metrics endpoint. Thread
//! ids are sorted into layers by which of them each launch call starts.

use crate::procfs;
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload, BRIDGE_HOST, DNS_TYPE, UPNP_TYPE};
use starlink_core::{
    BridgeEngine, BridgeRegistry, DeployedBridge, EngineConfig, GatewayConfig, MetricsHub,
    ShardedBridge, ShardedGateway,
};
use starlink_net::{LatencyModel, MetricsServer, SimDuration, SimNet};
use starlink_protocols::{bridges, http, mdns, slp, ssdp, upnp, wsd, BridgeCase, Calibration};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The five protocol models, as the sources an operator would load.
pub fn mdl_sources() -> [(&'static str, &'static str); 5] {
    [
        ("slp.xml", slp::mdl_xml()),
        ("dns.xml", mdns::mdl_xml()),
        ("ssdp.xml", ssdp::mdl_xml()),
        ("http.xml", http::mdl_xml()),
        ("wsd.xml", wsd::mdl_xml()),
    ]
}

/// A registry with all five models loaded through the gate, with a
/// `registry.load_source` span under `parent` around each load.
pub fn loaded_registry(tracer: &mut Tracer, parent: u64) -> Result<BridgeRegistry, String> {
    let mut registry = BridgeRegistry::new();
    for (subject, source) in mdl_sources() {
        tracer
            .call("registry.load_source", parent, || registry.load_source(subject, source))
            .map_err(|e| format!("load {subject}: {e}"))?;
    }
    Ok(registry)
}

/// One shard, the case-study correlator, no answer cache, no
/// store-and-forward.
pub fn engine_config(force_interpreted: bool) -> EngineConfig {
    EngineConfig {
        correlator: Some(Arc::new(bridges::default_correlator())),
        answer_ttl: None,
        store_forward: None,
        force_interpreted,
        ..EngineConfig::default()
    }
}

/// Launches the shard workers of `engines`, each simulation holding the
/// target-side service of `case`, under a `shard.launch` span; returns
/// the bridge and the workers' thread ids.
pub fn launch_shards(
    engines: Vec<BridgeEngine>,
    case: BridgeCase,
    inputs: &Inputs,
    tracer: &mut Tracer,
    parent: u64,
) -> (ShardedBridge, Vec<u32>) {
    let before = procfs::task_ids();
    let bridge = tracer.call("shard.launch", parent, || {
        ShardedBridge::launch(inputs.sim_seed, BRIDGE_HOST, engines, |_, sim| {
            populate(case, inputs, sim)
        })
    });
    (bridge, procfs::new_tasks(&before))
}

/// Adds the target-side service of `case`, with instant calibration, to
/// one shard's simulation.
fn populate(case: BridgeCase, inputs: &Inputs, sim: &mut SimNet) {
    sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
    let instant = Calibration::instant();
    match case {
        BridgeCase::SlpToUpnp => {
            sim.add_actor(
                inputs.service_host.clone(),
                upnp::UpnpDevice::new(UPNP_TYPE, inputs.service_host.clone(), instant),
            );
        }
        _ => {
            sim.add_actor(
                inputs.service_host.clone(),
                mdns::BonjourService::new(DNS_TYPE, inputs.bonjour_url.clone(), instant),
            );
        }
    }
}

/// Thread ids of each program layer.
#[derive(Debug, Clone, Default)]
pub struct Groups {
    /// Started by `ShardedBridge::launch`.
    pub shard: Vec<u32>,
    /// Started by `ShardedGateway::launch`.
    pub gateway: Vec<u32>,
    /// Started by `ShardedGateway::serve_metrics`.
    pub export: Vec<u32>,
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Five `load_source` calls (MDL gate + codec generation).
    pub load_check: Duration,
    /// `deploy_sharded` (deployment checks + engine build).
    pub deploy: Duration,
    /// Shard, gateway and metrics endpoint launch.
    pub launch: Duration,
}

impl SetupTimes {
    /// Empty registry to serving gateway.
    pub fn total(&self) -> Duration {
        self.load_check + self.deploy + self.launch
    }
}

/// A serving deployment. Fields drop in order: endpoint, gateway (which
/// joins its threads, then the shard workers).
pub struct Rig {
    /// The metrics endpoint.
    pub server: MetricsServer,
    /// The socket front.
    pub gateway: ShardedGateway,
    /// The hub behind the endpoint.
    pub hub: MetricsHub,
    /// The deployment's versioned handle (ledger, stats).
    pub deployed: DeployedBridge,
    /// Real loopback port of the bridge's SLP socket.
    pub ingress: u16,
    /// Thread ids per layer.
    pub groups: Groups,
}

impl Rig {
    /// Sets the workload's bridge up from an empty registry, timing
    /// each stage and recording a span around each call, under one
    /// `setup` span.
    pub fn deploy(
        workload: &Workload,
        inputs: &Inputs,
        tracer: &mut Tracer,
    ) -> Result<(Rig, SetupTimes), String> {
        let setup = tracer.new_id();
        let t0 = Instant::now();
        let mut registry = loaded_registry(tracer, setup)?;
        let t1 = Instant::now();
        let (engines, deployed) = tracer
            .call("registry.deploy_sharded", setup, || {
                registry.deploy_sharded(workload.case.build(BRIDGE_HOST), engine_config(false), 1)
            })
            .map_err(|e| format!("deploy: {e}"))?;
        let t2 = Instant::now();

        let (bridge, shard) = launch_shards(engines, workload.case, inputs, tracer, setup);

        let before = procfs::task_ids();
        let config =
            GatewayConfig { udp_ports: vec![slp::SLP_PORT], threads: 1, ..Default::default() };
        let gateway = tracer
            .call("gateway.launch", setup, || ShardedGateway::launch(bridge, config))
            .map_err(|e| format!("gateway: {e}"))?;
        let gateway_tids = procfs::new_tasks(&before);

        let before = procfs::task_ids();
        let hub = MetricsHub::new();
        let server = tracer
            .call("export.serve_metrics", setup, || gateway.serve_metrics(&hub))
            .map_err(|e| format!("metrics endpoint: {e}"))?;
        hub.register(&deployed);
        let export = procfs::new_tasks(&before);
        let t3 = Instant::now();
        tracer.record("setup", setup, 0, t0, t3);

        let ingress =
            gateway.ingress_real_port(0, slp::SLP_PORT).ok_or("no ingress port for shard 0")?;
        let times = SetupTimes { load_check: t1 - t0, deploy: t2 - t1, launch: t3 - t2 };
        let groups = Groups { shard, gateway: gateway_tids, export };
        Ok((Rig { server, gateway, hub, deployed, ingress, groups }, times))
    }
}

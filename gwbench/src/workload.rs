//! The three workloads and the inputs each run derives from its seed.

use starlink_protocols::{slp, BridgeCase};

/// SLP service type the clients ask for.
pub const SLP_TYPE: &str = "service:printer";
/// DNS-SD name the Bonjour responder answers.
pub const DNS_TYPE: &str = "_printer._tcp.local";
/// UPnP service type the device advertises.
pub const UPNP_TYPE: &str = "urn:schemas-upnp-org:service:printer:1";
/// Simulated host the bridge engine runs at inside each shard.
pub const BRIDGE_HOST: &str = "10.0.0.2";

/// One traffic mix: a bridge case, an offered rate for the open-loop
/// phase, a closed-loop window for the saturation phase, session
/// counts, and how many malformed datagrams ride along per session.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// The deployed bridge.
    pub case: BridgeCase,
    /// Malformed datagrams sent per legit session, interleaved.
    pub garbage_per_legit: usize,
    /// Closed-loop sessions run before anything is measured.
    pub warmup: usize,
    /// Offered legit sessions per second in the open-loop phase.
    pub rate: u32,
    /// Sessions in the open-loop phase.
    pub open: usize,
    /// Sessions in the saturation phase.
    pub saturation: usize,
    /// Legit sessions in flight during the saturation phase.
    pub window: usize,
}

impl Workload {
    /// Every session a run starts. Stays below 2^16 so that XIDs, which
    /// are 16 bits on the wire, never repeat within a run.
    pub fn sessions(&self) -> usize {
        self.warmup + self.open + self.saturation
    }
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fused_discovery",
        case: BridgeCase::SlpToBonjour,
        garbage_per_legit: 0,
        warmup: 3_000,
        rate: 10_000,
        open: 10_000,
        saturation: 30_000,
        window: 128,
    },
    Workload {
        name: "upnp_chain",
        case: BridgeCase::SlpToUpnp,
        garbage_per_legit: 0,
        warmup: 1_000,
        rate: 4_000,
        open: 4_000,
        saturation: 6_000,
        window: 128,
    },
    Workload {
        name: "garbage_flood",
        case: BridgeCase::SlpToBonjour,
        garbage_per_legit: 4,
        warmup: 500,
        rate: 2_000,
        open: 2_000,
        saturation: 6_000,
        window: 32,
    },
];

/// Looks a workload up by name.
pub fn named(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: a small, fixed, seedable generator (the inputs must be
/// the same for the same seed on every build).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Everything a run sends or expects, derived from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Simulated host of the target-side service.
    pub service_host: String,
    /// The URL the Bonjour responder advertises (case 2).
    pub bonjour_url: String,
    /// The URL every legit reply must carry.
    pub expected_url: String,
    /// XID of session 0.
    pub xid_base: u16,
    /// Seed of each shard simulation.
    pub sim_seed: u64,
    /// Seed of [`Inputs::garbage_candidates`].
    pub garbage_seed: u64,
}

impl Inputs {
    /// The inputs of seed `seed` for `workload`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5eed_0000_0000_0000);
        // Fixed-width host and URL, so the seed moves values but not
        // message sizes.
        let service_host = format!("10.0.3.{}", rng.range(100, 200));
        let bonjour_url =
            format!("service:printer://{service_host}:631/bench-{:08x}", rng.next_u64() as u32);
        let expected_url = match workload.case {
            BridgeCase::SlpToUpnp => {
                format!("http://{service_host}:{}", starlink_protocols::http::UPNP_HTTP_PORT)
            }
            _ => bonjour_url.clone(),
        };
        Inputs {
            service_host,
            bonjour_url,
            expected_url,
            xid_base: rng.next_u64() as u16,
            sim_seed: rng.next_u64(),
            garbage_seed: rng.next_u64(),
        }
    }

    /// The SrvRqst of global session `k`.
    pub fn request(&self, k: usize) -> Vec<u8> {
        let xid = crate::check::xid_of(self.xid_base, k);
        slp::encode(&slp::SlpMessage::SrvRqst(slp::SrvRqst::new(xid, SLP_TYPE)))
    }

    /// `count` malformed datagrams, alternating a SrvRqst cut short at
    /// a random length and random bytes of random length.
    pub fn garbage_candidates(&self, count: usize) -> Vec<Vec<u8>> {
        let mut rng = Rng::new(self.garbage_seed);
        (0..count)
            .map(|i| {
                if i % 2 == 0 {
                    let mut full = self.request(rng.range(0, 1 << 16));
                    full.truncate(rng.range(1, full.len()));
                    full
                } else {
                    let len = rng.range(4, 64);
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_move_with_it() {
        let w = WORKLOADS[0];
        let a = Inputs::new(&w, 5);
        let b = Inputs::new(&w, 5);
        let c = Inputs::new(&w, 6);
        assert_eq!(a.expected_url, b.expected_url);
        assert_eq!(a.garbage_candidates(16), b.garbage_candidates(16));
        assert_ne!((a.expected_url.clone(), a.xid_base), (c.expected_url.clone(), c.xid_base));
        assert_eq!(a.expected_url.len(), c.expected_url.len());
    }

    #[test]
    fn every_workload_fits_the_xid_space_and_the_socket_buffers() {
        for w in WORKLOADS {
            assert!(w.sessions() < 1 << 16, "{}", w.name);
            let in_flight = w.window * (1 + w.garbage_per_legit);
            assert!(in_flight as u64 <= crate::gen::BACKLOG_CAP, "{}", w.name);
        }
    }
}

//! The output checker. Every legit reply is decoded with the SLP wire
//! codec of `starlink-protocols` (independent of the MDL engine that
//! composed it), must echo the XID of a session this phase sent, must
//! carry the URL the benchmark gave the target-side service, and must
//! arrive once. At quiescence the gateway must have sent exactly one
//! datagram per legit reply (garbage gets none) and the session ledger
//! must balance with nothing active.

use starlink_core::{ConcurrencyStats, GatewayStats};
use starlink_protocols::slp;

/// Problems kept verbatim per checker; the rest are only counted.
const KEPT: usize = 8;

/// The SLP transaction id of global session index `k`.
pub fn xid_of(xid_base: u16, k: usize) -> u16 {
    xid_base.wrapping_add(k as u16)
}

/// Checks the replies of one phase: sessions `first..first + count`.
#[derive(Debug)]
pub struct Checker {
    expected_url: String,
    xid_base: u16,
    first: usize,
    seen: Vec<bool>,
    completed: usize,
    replies: u64,
    problems: Vec<String>,
    problem_count: u64,
}

impl Checker {
    /// A checker expecting one reply per session `first..first + count`,
    /// each carrying `expected_url`.
    pub fn new(expected_url: &str, xid_base: u16, first: usize, count: usize) -> Self {
        assert!(count <= usize::from(u16::MAX), "a phase must fit the 16-bit XID space");
        Checker {
            expected_url: expected_url.to_owned(),
            xid_base,
            first,
            seen: vec![false; count],
            completed: 0,
            replies: 0,
            problems: Vec::new(),
            problem_count: 0,
        }
    }

    fn problem(&mut self, text: String) {
        self.problem_count += 1;
        if self.problems.len() < KEPT {
            self.problems.push(text);
        }
    }

    /// Checks one reply datagram. Returns the global index of the
    /// session it correctly completes, or `None` (and records why).
    pub fn on_reply(&mut self, payload: &[u8]) -> Option<usize> {
        self.replies += 1;
        let rply = match slp::decode(payload) {
            Ok(slp::SlpMessage::SrvRply(rply)) => rply,
            Ok(other) => {
                self.problem(format!("reply is not a SrvRply: {other:?}"));
                return None;
            }
            Err(err) => {
                self.problem(format!("reply does not decode as SLP: {err}"));
                return None;
            }
        };
        let offset = usize::from(rply.xid.wrapping_sub(xid_of(self.xid_base, self.first)));
        if offset >= self.seen.len() {
            self.problem(format!("reply carries foreign XID {:#06x}", rply.xid));
            return None;
        }
        if rply.url != self.expected_url {
            self.problem(format!(
                "XID {:#06x}: URL {:?}, expected {:?}",
                rply.xid, rply.url, self.expected_url
            ));
            return None;
        }
        if std::mem::replace(&mut self.seen[offset], true) {
            self.problem(format!("duplicate reply for XID {:#06x}", rply.xid));
            return None;
        }
        self.completed += 1;
        Some(self.first + offset)
    }

    /// Sessions correctly completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Datagrams handed to [`Checker::on_reply`], right or wrong.
    pub fn replies(&self) -> u64 {
        self.replies
    }

    /// Recorded problems (the first few verbatim, then a count line).
    pub fn problems(&self) -> Vec<String> {
        let mut out = self.problems.clone();
        if self.problem_count > self.problems.len() as u64 {
            out.push(format!("... {} problems in all", self.problem_count));
        }
        out
    }
}

/// The quiescence audit: `legit_replies` is every reply datagram the
/// generator received over the whole run.
pub fn audit(gateway: &GatewayStats, ledger: &ConcurrencyStats, legit_replies: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if gateway.datagrams_out != legit_replies {
        problems.push(format!(
            "gateway sent {} datagrams but {} legit replies arrived (garbage must get none)",
            gateway.datagrams_out, legit_replies
        ));
    }
    if gateway.send_errors != 0 {
        problems.push(format!("gateway recorded {} send errors", gateway.send_errors));
    }
    if !ledger.is_balanced() || ledger.active != 0 {
        problems.push(format!("ledger not settled at quiescence: {ledger:?}"));
    }
    if ledger.completed != legit_replies {
        problems.push(format!(
            "ledger completed {} sessions, {} replies arrived",
            ledger.completed, legit_replies
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const URL: &str = "service:printer://10.0.3.142:631/bench-0000002a";

    fn reply(xid: u16, url: &str) -> Vec<u8> {
        slp::encode(&slp::SlpMessage::SrvRply(slp::SrvRply::new(xid, url)))
    }

    fn settled(completed: u64) -> ConcurrencyStats {
        ConcurrencyStats { started: completed, completed, ..ConcurrencyStats::default() }
    }

    #[test]
    fn correct_replies_complete_their_sessions() {
        let mut checker = Checker::new(URL, 0xfff0, 100, 50);
        // Session 120's XID wraps past 0xffff.
        let xid = xid_of(0xfff0, 120);
        assert_eq!(checker.on_reply(&reply(xid, URL)), Some(120));
        assert_eq!(checker.completed(), 1);
        assert!(checker.problems().is_empty());
        let gateway = GatewayStats { datagrams_in: 1, datagrams_out: 1, ..Default::default() };
        assert!(audit(&gateway, &settled(1), 1).is_empty());
    }

    #[test]
    fn a_wrong_url_fails_the_run() {
        let mut checker = Checker::new(URL, 7, 0, 10);
        assert_eq!(checker.on_reply(&reply(xid_of(7, 3), "service:printer://10.0.0.9:631")), None);
        assert_eq!(checker.completed(), 0);
        assert!(checker.problems()[0].contains("URL"));
    }

    #[test]
    fn a_foreign_xid_fails_the_run() {
        let mut checker = Checker::new(URL, 7, 0, 10);
        assert_eq!(checker.on_reply(&reply(xid_of(7, 10), URL)), None);
        assert!(checker.problems()[0].contains("foreign XID"));
        // An XID from another phase's range is foreign too.
        let mut later = Checker::new(URL, 7, 10, 10);
        assert_eq!(later.on_reply(&reply(xid_of(7, 9), URL)), None);
        assert!(later.problems()[0].contains("foreign XID"));
    }

    #[test]
    fn duplicates_and_undecodable_replies_fail_the_run() {
        let mut checker = Checker::new(URL, 0, 0, 4);
        assert_eq!(checker.on_reply(&reply(2, URL)), Some(2));
        assert_eq!(checker.on_reply(&reply(2, URL)), None);
        assert_eq!(checker.on_reply(&[0xde, 0xad]), None);
        let request = slp::encode(&slp::SlpMessage::SrvRqst(slp::SrvRqst::new(1, "service:x")));
        assert_eq!(checker.on_reply(&request), None);
        assert_eq!(checker.problems().len(), 3);
        assert_eq!(checker.replies(), 4);
    }

    #[test]
    fn a_reply_to_garbage_fails_the_run() {
        // 10 legit replies arrived but the gateway sent 11 datagrams:
        // one went to a garbage sender.
        let gateway = GatewayStats { datagrams_in: 50, datagrams_out: 11, ..Default::default() };
        let problems = audit(&gateway, &settled(10), 10);
        assert!(problems.iter().any(|p| p.contains("garbage must get none")), "{problems:?}");
    }

    #[test]
    fn an_unbalanced_ledger_fails_the_run() {
        let gateway = GatewayStats { datagrams_in: 10, datagrams_out: 10, ..Default::default() };
        let leaking =
            ConcurrencyStats { started: 11, completed: 10, ..ConcurrencyStats::default() };
        assert!(!audit(&gateway, &leaking, 10).is_empty());
        let active = ConcurrencyStats { started: 11, completed: 10, active: 1, ..leaking };
        assert!(audit(&gateway, &active, 10).iter().any(|p| p.contains("not settled")));
    }
}

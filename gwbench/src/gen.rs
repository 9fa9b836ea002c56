//! The load generator: one process, at most two threads and two client
//! sockets. Legit SrvRqsts leave the `legit` socket, multiplexed by
//! XID; malformed datagrams leave the `garbage` socket, which never
//! gets a reply.
//!
//! * Open loop: a sender thread sleeps until each datagram's due time;
//!   a receiver thread blocks in `recv` with no timeout. A session's
//!   latency runs from its due time, so a stall also delays the
//!   sessions queued behind it, and the sender's lateness is kept.
//! * Closed loop: one thread keeps `window` legit sessions in flight;
//!   workloads keep `window × (1 + garbage)` within [`BACKLOG_CAP`].

use crate::alloc;
use crate::check::Checker;
use crate::procfs;
use crate::trace::Tracer;
use crate::workload::Inputs;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a closed-loop receive waits before the missing sessions
/// count as failed. Only bounds a broken run; never hit in a good one.
const LOST: Duration = Duration::from_secs(3);
/// Marks the end of an open-loop phase to its receiver.
const STOP: &[u8] = b"stop";
/// Most datagrams the open loop lets wait in a socket buffer: in the
/// gateway's, counted by what the gateway has drained, and in the
/// generator's, counted by the legit sessions not yet answered. A
/// loopback UDP socket with the default buffer holds 256 small
/// datagrams; past that the kernel drops them, so a long stall of the
/// host would turn into lost sessions. While the cap holds, the sender
/// waits and its lateness is charged to the sessions it delays.
pub const BACKLOG_CAP: u64 = 192;

/// The generator's sockets and payloads.
pub struct Client {
    legit: UdpSocket,
    garbage: UdpSocket,
    ingress: SocketAddr,
    /// Malformed datagrams, cycled through.
    pool: Vec<Vec<u8>>,
    /// Malformed datagrams sent per legit session.
    garbage_per_legit: usize,
    next_garbage: usize,
    /// Every datagram the legit socket received so far.
    pub replies: u64,
    /// Every datagram either socket sent so far.
    pub sent: u64,
    /// Thread ids of the generator's threads.
    pub tids: Vec<u32>,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Legit sessions started.
    pub sessions: usize,
    /// Sessions that got their correct reply.
    pub completed: usize,
    /// Due-time-to-reply latency of each completed session, ns.
    pub latency_ns: Vec<u64>,
    /// How late the sender was for each datagram, ns (open loop).
    pub late_ns: Vec<u64>,
    /// First send to last reply.
    pub elapsed: Duration,
    /// Checker findings.
    pub problems: Vec<String>,
}

fn loopback() -> std::io::Result<UdpSocket> {
    UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))
}

impl Client {
    /// Binds both sockets; `garbage_per_legit` datagrams from `pool`
    /// (cycled) ride along with every legit session.
    pub fn new(
        ingress_port: u16,
        pool: Vec<Vec<u8>>,
        garbage_per_legit: usize,
    ) -> std::io::Result<Client> {
        let tids = procfs::current_tid().into_iter().collect();
        Ok(Client {
            legit: loopback()?,
            garbage: loopback()?,
            ingress: SocketAddr::from((Ipv4Addr::LOCALHOST, ingress_port)),
            pool,
            garbage_per_legit,
            next_garbage: 0,
            replies: 0,
            sent: 0,
            tids,
        })
    }

    /// Problems for any datagram the garbage socket received: garbage
    /// must never be answered.
    pub fn garbage_answers(&self) -> Vec<String> {
        let mut buf = [0u8; 2048];
        let mut answers = 0usize;
        if self.garbage.set_nonblocking(true).is_ok() {
            while self.garbage.recv_from(&mut buf).is_ok() {
                answers += 1;
            }
        }
        if answers == 0 {
            Vec::new()
        } else {
            vec![format!("{answers} datagrams answered a garbage sender")]
        }
    }

    fn send_garbage(&mut self, count: usize) -> std::io::Result<()> {
        for _ in 0..count {
            let payload = &self.pool[self.next_garbage % self.pool.len()];
            self.next_garbage += 1;
            self.garbage.send_to(payload, self.ingress)?;
            self.sent += 1;
        }
        Ok(())
    }

    /// Open loop: sessions `first..first + count` offered at `rate` per
    /// second, each followed by the client's malformed datagrams spread
    /// evenly between it and the next session.
    pub fn open_loop(
        &mut self,
        inputs: &Inputs,
        first: usize,
        count: usize,
        rate: u32,
        ingress_drained: &dyn Fn() -> u64,
        tracer: &mut Tracer,
    ) -> std::io::Result<Phase> {
        self.legit.set_read_timeout(None)?;
        let per_session = 1 + self.garbage_per_legit;
        let slot = Duration::from_secs_f64(1.0 / (f64::from(rate) * per_session as f64));
        let requests: Vec<Vec<u8>> = (first..first + count).map(|k| inputs.request(k)).collect();
        let mut checker = Checker::new(&inputs.expected_url, inputs.xid_base, first, count);
        let receiver_socket = self.legit.try_clone()?;
        let stop_from = self.garbage.local_addr()?;
        let trace_on = tracer.on();
        let t0 = Instant::now() + Duration::from_millis(5);
        let due = move |k: usize| t0 + slot * ((k - first) * per_session) as u32;

        let answered = Arc::new(AtomicU64::new(0));
        let answered_by_receiver = Arc::clone(&answered);
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            alloc::exclude_current_thread();
            let _ = tid_tx.send(procfs::current_tid());
            let mut latency_ns = Vec::with_capacity(count);
            let mut local = Tracer::new(trace_on, t0, count);
            let mut buf = vec![0u8; 2048];
            let mut last = t0;
            while checker.completed() < count {
                let Ok((len, from)) = receiver_socket.recv_from(&mut buf) else { break };
                let now = Instant::now();
                if from == stop_from && &buf[..len] == STOP {
                    break;
                }
                last = now;
                answered_by_receiver.fetch_add(1, Ordering::Relaxed);
                if let Some(k) = checker.on_reply(&buf[..len]) {
                    latency_ns.push(now.saturating_duration_since(due(k)).as_nanos() as u64);
                    local.record("session", k as u64, 0, due(k), now);
                }
            }
            (checker, latency_ns, local, last)
        });
        if let Ok(Some(tid)) = tid_rx.recv() {
            self.tids.push(tid);
        }

        let mut late_ns = Vec::with_capacity(count * per_session);
        let mut send_error = None;
        for k in first..first + count {
            for j in 0..per_session {
                let at = due(k) + slot * j as u32;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let legit_sent = (k - first + usize::from(j > 0)) as u64;
                while self.sent.saturating_sub(ingress_drained()) >= BACKLOG_CAP
                    || legit_sent.saturating_sub(answered.load(Ordering::Relaxed)) >= BACKLOG_CAP
                {
                    std::thread::sleep(Duration::from_micros(20));
                }
                let sent = Instant::now();
                late_ns.push(sent.saturating_duration_since(at).as_nanos() as u64);
                let result = if j == 0 {
                    self.sent += 1;
                    self.legit.send_to(&requests[k - first], self.ingress).map(drop)
                } else {
                    self.send_garbage(1)
                };
                if let Err(err) = result {
                    send_error.get_or_insert(err);
                }
                if trace_on && j == 0 {
                    let id = tracer.new_id();
                    tracer.record("net.send", id, k as u64, sent, Instant::now());
                }
            }
        }
        // Give stragglers the loss timeout, then release the receiver.
        let deadline = Instant::now() + LOST;
        while !receiver.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !receiver.is_finished() {
            self.garbage.send_to(STOP, self.legit.local_addr()?)?;
        }
        let (checker, latency_ns, local, last) =
            receiver.join().expect("open-loop receiver thread panicked");
        if let Some(err) = send_error {
            return Err(err);
        }
        tracer.absorb(local);
        self.replies += checker.replies();
        Ok(Phase {
            sessions: count,
            completed: checker.completed(),
            latency_ns,
            late_ns,
            elapsed: last.saturating_duration_since(t0),
            problems: checker.problems(),
        })
    }

    /// Closed loop on the calling thread: sessions `first..first + count`
    /// with `window` in flight, each preceded by the client's malformed
    /// datagrams.
    pub fn closed_loop(
        &mut self,
        inputs: &Inputs,
        first: usize,
        count: usize,
        window: usize,
        tracer: &mut Tracer,
    ) -> std::io::Result<Phase> {
        self.legit.set_read_timeout(Some(LOST))?;
        let requests: Vec<Vec<u8>> = (first..first + count).map(|k| inputs.request(k)).collect();
        let mut checker = Checker::new(&inputs.expected_url, inputs.xid_base, first, count);
        let mut started = vec![Instant::now(); count];
        let mut latency_ns = Vec::with_capacity(count);
        let mut buf = vec![0u8; 2048];
        let t0 = Instant::now();
        let mut last = t0;
        let (mut sent, mut answered) = (0usize, 0usize);
        while answered < count {
            while sent < count && sent - answered < window {
                self.send_garbage(self.garbage_per_legit)?;
                started[sent] = Instant::now();
                self.legit.send_to(&requests[sent], self.ingress)?;
                self.sent += 1;
                sent += 1;
            }
            let len = match self.legit.recv_from(&mut buf) {
                Ok((len, _)) => len,
                Err(err)
                    if matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(err) => return Err(err),
            };
            last = Instant::now();
            answered += 1;
            if let Some(k) = checker.on_reply(&buf[..len]) {
                let start = started[k - first];
                latency_ns.push(last.duration_since(start).as_nanos() as u64);
                tracer.record("session", k as u64, 0, start, last);
            }
        }
        self.replies += checker.replies();
        Ok(Phase {
            sessions: count,
            completed: checker.completed(),
            latency_ns,
            late_ns: Vec::new(),
            elapsed: last.duration_since(t0),
            problems: checker.problems(),
        })
    }
}

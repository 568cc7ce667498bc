//! Output checking: every frame offered to the system is fingerprinted, and
//! every frame that comes back is matched against its fingerprint and the
//! workload's oracle verdict.
//!
//! A frame counts as failed when it is lost after the drain, delivered with
//! altered bytes, delivered where its verdict says it must not go (a
//! rule-matching frame on a physical port, a blacklisted frame returned), or
//! delivered more than once.

use std::collections::HashMap;

use rosebud::accel::RuleSet;
use rosebud::core::port;
use rosebud::net::Packet;

/// Where a frame left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// A physical port.
    Port(u8),
    /// The host, over PCIe.
    Host,
}

impl Delivery {
    /// Classifies a delivered simulator frame by the port it carries.
    pub fn of(pkt: &Packet) -> Self {
        if pkt.port == port::HOST {
            Delivery::Host
        } else {
            Delivery::Port(pkt.port)
        }
    }
}

/// What the device must do with one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Leave unchanged on a physical port (`None`: any port).
    Forward(Option<u8>),
    /// Go to the host with one of these rule ids appended.
    Host(Vec<u32>),
    /// Never come back.
    Drop,
}

/// The workload's ground truth.
pub trait Oracle {
    /// Cheap test, applied when a frame is offered: must the device drop it?
    fn drops(&self, frame: &[u8]) -> bool;
    /// Full verdict for a frame that is not dropped, applied on delivery.
    fn verdict(&self, frame: &[u8], in_port: Option<u8>) -> Verdict;
}

impl<O: Oracle + ?Sized> Oracle for std::rc::Rc<O> {
    fn drops(&self, frame: &[u8]) -> bool {
        (**self).drops(frame)
    }

    fn verdict(&self, frame: &[u8], in_port: Option<u8>) -> Verdict {
        (**self).verdict(frame, in_port)
    }
}

/// Forwarders: every frame goes back out on the other port.
pub struct ForwardOracle;

impl Oracle for ForwardOracle {
    fn drops(&self, _frame: &[u8]) -> bool {
        false
    }

    fn verdict(&self, _frame: &[u8], in_port: Option<u8>) -> Verdict {
        Verdict::Forward(in_port.map(|p| p ^ 1))
    }
}

/// The IPS: frames whose payload matches a rule go to the host, the rest
/// out the other port; non-TCP/UDP frames are dropped.
pub struct IdsOracle {
    pub rules: RuleSet,
}

impl Oracle for IdsOracle {
    fn drops(&self, frame: &[u8]) -> bool {
        l4_ports(frame).is_none()
    }

    fn verdict(&self, frame: &[u8], in_port: Option<u8>) -> Verdict {
        let Some((off, src, dst)) = l4_ports(frame) else {
            return Verdict::Drop;
        };
        let ids = self.rules.matches(&frame[off..], src, dst);
        if ids.is_empty() {
            Verdict::Forward(in_port.map(|p| p ^ 1))
        } else {
            Verdict::Host(ids)
        }
    }
}

/// The firewall: frames whose source /24 is blacklisted are dropped, the
/// rest go out the other port.
pub struct FirewallOracle {
    blocked: std::collections::HashSet<[u8; 3]>,
}

impl FirewallOracle {
    pub fn new(blacklist: &[[u8; 4]]) -> Self {
        Self {
            blocked: blacklist.iter().map(|ip| [ip[0], ip[1], ip[2]]).collect(),
        }
    }

    pub fn blocks(&self, src: [u8; 4]) -> bool {
        self.blocked.contains(&[src[0], src[1], src[2]])
    }
}

impl Oracle for FirewallOracle {
    fn drops(&self, frame: &[u8]) -> bool {
        let ipv4 = frame.len() >= 34 && frame[12..14] == [0x08, 0x00];
        !ipv4 || self.blocks([frame[26], frame[27], frame[28], frame[29]])
    }

    fn verdict(&self, frame: &[u8], in_port: Option<u8>) -> Verdict {
        if self.drops(frame) {
            Verdict::Drop
        } else {
            Verdict::Forward(in_port.map(|p| p ^ 1))
        }
    }
}

/// `(payload offset, src port, dst port)` of an IPv4 TCP/UDP frame with a
/// 20-byte IP header, the only shape the generators emit.
fn l4_ports(frame: &[u8]) -> Option<(usize, u16, u16)> {
    if frame.len() < 42 || frame[12..14] != [0x08, 0x00] || frame[14] != 0x45 {
        return None;
    }
    let off = match frame[23] {
        6 if frame.len() >= 54 => 54,
        17 => 42,
        _ => return None,
    };
    let src = u16::from_be_bytes([frame[34], frame[35]]);
    let dst = u16::from_be_bytes([frame[36], frame[37]]);
    Some((off, src, dst))
}

/// A 64-bit fingerprint of a frame, eight bytes at a time.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h
}

struct Expected {
    hash: u64,
    len: usize,
    in_port: Option<u8>,
    drop: bool,
}

/// The per-run tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// Frames delivered intact with the right verdict.
    pub ok: u64,
    /// Frames delivered altered or with the wrong verdict.
    pub bad: u64,
    /// Deliveries of frames never offered, or offered once and seen twice.
    pub extra: u64,
}

/// Matches delivered frames against what was offered.
pub struct Checker<O> {
    oracle: O,
    pending: HashMap<u64, Expected>,
    tally: Tally,
}

impl<O: Oracle> Checker<O> {
    pub fn new(oracle: O) -> Self {
        Self {
            oracle,
            pending: HashMap::new(),
            tally: Tally::default(),
        }
    }

    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Records frame `id` as offered on `in_port` (`None` when the offering
    /// layer does not know the port). Re-offering an id replaces its entry.
    pub fn expect(&mut self, id: u64, frame: &[u8], in_port: Option<u8>) {
        let drop = self.oracle.drops(frame);
        self.pending.insert(
            id,
            Expected {
                hash: fingerprint(frame),
                len: frame.len(),
                in_port,
                drop,
            },
        );
    }

    /// Checks one delivered frame; returns whether it was correct.
    pub fn observe(&mut self, at: Delivery, id: u64, frame: &[u8]) -> bool {
        let Some(exp) = self.pending.remove(&id) else {
            self.tally.extra += 1;
            return false;
        };
        let good = self.judge(&exp, at, frame);
        if good {
            self.tally.ok += 1;
        } else {
            self.tally.bad += 1;
        }
        good
    }

    fn judge(&self, exp: &Expected, at: Delivery, frame: &[u8]) -> bool {
        if exp.drop || frame.len() < exp.len || fingerprint(&frame[..exp.len]) != exp.hash {
            return false;
        }
        let original = &frame[..exp.len];
        match (self.oracle.verdict(original, exp.in_port), at) {
            (Verdict::Forward(want), Delivery::Port(p)) => {
                frame.len() == exp.len && want.is_none_or(|w| w == p)
            }
            (Verdict::Host(rules), Delivery::Host) => {
                let tail = &frame[frame.len().saturating_sub(4)..];
                frame.len() >= exp.len + 4
                    && rules.contains(&u32::from_le_bytes(tail.try_into().expect("4 bytes")))
            }
            _ => false,
        }
    }

    /// Frames still awaited that the oracle says the device drops.
    fn pending_drops(&self) -> u64 {
        self.pending.values().filter(|e| e.drop).count() as u64
    }

    /// Failed frames out of `attempted` accepted ones, once the system has
    /// drained: everything not delivered correctly, less the drops the
    /// oracle demanded and the device accounted (`device_dropped`), plus
    /// spurious deliveries.
    pub fn failed(&self, attempted: u64, device_dropped: u64) -> u64 {
        let dropped_ok = self.pending_drops().min(device_dropped);
        (attempted.saturating_sub(self.tally.ok + dropped_ok) + self.tally.extra).min(attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud::apps::rules::synthetic_rules;
    use rosebud::net::PacketBuilder;

    fn frame(src: [u8; 4], payload: &[u8]) -> Vec<u8> {
        PacketBuilder::new()
            .src_ip(src)
            .tcp(4000, 80)
            .payload(payload)
            .pad_to(128)
            .build()
            .bytes()
            .to_vec()
    }

    #[test]
    fn intact_forwarded_frames_pass() {
        let mut c = Checker::new(ForwardOracle);
        let f = frame([10, 0, 0, 1], b"hello");
        c.expect(7, &f, Some(0));
        assert!(c.observe(Delivery::Port(1), 7, &f));
        assert_eq!(c.failed(1, 0), 0);
    }

    #[test]
    fn flipped_byte_fails() {
        let mut c = Checker::new(ForwardOracle);
        let f = frame([10, 0, 0, 1], b"hello");
        c.expect(1, &f, Some(0));
        let mut g = f.clone();
        g[60] ^= 0x01;
        assert!(!c.observe(Delivery::Port(1), 1, &g));
        assert_eq!(c.failed(1, 0), 1);
    }

    #[test]
    fn missing_frame_fails() {
        let mut c = Checker::new(ForwardOracle);
        let f = frame([10, 0, 0, 1], b"a");
        let g = frame([10, 0, 0, 2], b"b");
        c.expect(1, &f, None);
        c.expect(2, &g, None);
        assert!(c.observe(Delivery::Port(0), 1, &f));
        assert_eq!(c.failed(2, 0), 1);
    }

    #[test]
    fn wrong_port_and_duplicates_fail() {
        let mut c = Checker::new(ForwardOracle);
        let f = frame([10, 0, 0, 1], b"a");
        c.expect(1, &f, Some(0));
        assert!(!c.observe(Delivery::Port(0), 1, &f), "not flipped");
        c.expect(2, &f, Some(1));
        assert!(c.observe(Delivery::Port(0), 2, &f));
        assert!(!c.observe(Delivery::Port(0), 2, &f), "second copy");
        assert_eq!(c.failed(2, 0), 2);
    }

    #[test]
    fn rule_pattern_frame_on_a_physical_port_fails() {
        let rules = synthetic_rules(16, 5);
        let pattern = rules[0].pattern.clone();
        let port = rules[0].dst_port.unwrap_or(80);
        let mut c = Checker::new(IdsOracle {
            rules: RuleSet::compile(rules.clone()),
        });
        let f = PacketBuilder::new()
            .tcp(4000, port)
            .payload(&pattern)
            .pad_to(256)
            .build()
            .bytes()
            .to_vec();
        c.expect(1, &f, Some(0));
        assert!(!c.observe(Delivery::Port(1), 1, &f));
        assert_eq!(c.failed(1, 0), 1);

        // The same frame flagged to the host with its rule id passes.
        c.expect(2, &f, Some(0));
        let mut flagged = f.clone();
        flagged.extend_from_slice(&rules[0].id.to_le_bytes());
        assert!(c.observe(Delivery::Host, 2, &flagged));
        // A clean frame sent to the host fails.
        let clean = frame([10, 0, 0, 1], b"");
        c.expect(3, &clean, Some(0));
        let mut wrong = clean.clone();
        wrong.extend_from_slice(&rules[0].id.to_le_bytes());
        assert!(!c.observe(Delivery::Host, 3, &wrong));
    }

    #[test]
    fn blacklisted_frame_returned_fails() {
        let blacklist = [[192, 0, 2, 0]];
        let mut c = Checker::new(FirewallOracle::new(&blacklist));
        let bad = frame([192, 0, 2, 77], b"x");
        let good = frame([10, 1, 2, 3], b"y");
        c.expect(1, &bad, Some(0));
        c.expect(2, &good, Some(0));
        assert!(!c.observe(Delivery::Port(1), 1, &bad));
        assert!(c.observe(Delivery::Port(1), 2, &good));
        assert_eq!(c.failed(2, 0), 1);
    }

    #[test]
    fn blacklisted_frame_dropped_by_the_device_passes() {
        let blacklist = [[192, 0, 2, 0]];
        let mut c = Checker::new(FirewallOracle::new(&blacklist));
        c.expect(1, &frame([192, 0, 2, 77], b"x"), Some(0));
        assert_eq!(c.failed(1, 1), 0);
        assert_eq!(c.failed(1, 0), 1, "a drop the device did not account");
    }

    #[test]
    fn fingerprint_sees_every_byte() {
        let f = frame([10, 0, 0, 1], b"hello");
        for i in 0..f.len() {
            let mut g = f.clone();
            g[i] ^= 0x80;
            assert_ne!(fingerprint(&f), fingerprint(&g), "byte {i}");
        }
    }
}

//! The wire format: a *record* is a fixed 16-byte header plus a compact
//! little-endian payload encoding of one protocol message, and a *frame*
//! — one UDP datagram — is one or more records laid end to end.
//!
//! Every record is self-describing enough for the receive path to
//! enforce the paper's §4 channel semantics *without trusting the
//! network*:
//!
//! ```text
//! byte  0      1        2..=3     4..=5   6..=7   8..=15      16..
//!       MAGIC  VERSION  from:u16  to:u16  lane:u16  seq:u64   payload
//! ```
//!
//! * `from`/`to` name the directed link the record travels on (one
//!   sequence space per ordered process pair);
//! * `lane` is the capacity lane the message occupies (the sharded
//!   service runs one lane per shard; plain links use lane 0);
//! * `seq` is the per-link sequence number, assigned in send order —
//!   the receiver delivers strictly increasing `seq` only, so a reordered
//!   or duplicated record is *dropped*, which turns UDP's weak ordering
//!   into the paper's FIFO fair-lossy channel.
//!
//! Payloads are encoded by the [`Wire`] trait — a minimal, dependency-free
//! codec (the workspace is offline; no serde) implemented here for every
//! message type the protocols exchange. There is no length field: every
//! [`Wire::decode`] consumes exactly its own bytes, so the next record
//! starts where this one stops, and a frame of one record is byte for
//! byte what [`encode_datagram`] produces (the format is still version
//! 1). A record that does not parse takes the rest of its frame with it
//! (a fair-lossy channel is allowed to lose them); [`decode_exact`]
//! judges a payload standing alone, where trailing bytes are malformed.

use snapstab_apps::SnapQuery;
use snapstab_core::flag::Flag;
use snapstab_core::forward::{ForwardMsg, HopAck, Payload};
use snapstab_core::idl::IdlQuery;
use snapstab_core::me::{MeBroadcast, MeFeedback};
use snapstab_core::pif::PifMsg;
use snapstab_core::probe::ProbeDigest;
use snapstab_core::shard::ShardedMeMsg;
use snapstab_runtime::MonitoredMsg;

/// First header byte of every snapstab datagram.
pub const MAGIC: u8 = 0xD5;
/// Wire-format version; bumped on any incompatible layout change.
pub const VERSION: u8 = 1;
/// Fixed size of the datagram header in bytes.
pub const HEADER_LEN: usize = 16;

/// The decoded fixed-size datagram header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Header {
    /// Sender process index.
    pub from: u16,
    /// Receiver process index.
    pub to: u16,
    /// Capacity lane the message occupies (clamped by the receiver).
    pub lane: u16,
    /// Per-link sequence number, strictly increasing in send order.
    pub seq: u64,
}

/// A cursor over a received byte buffer, consumed by [`Wire::decode`].
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a buffer, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }
}

/// A type that can travel inside a snapstab datagram.
///
/// The encoding is positional and little-endian; `decode` must consume
/// exactly what `encode` wrote ([`decode_exact`] additionally rejects
/// trailing bytes). Implemented for the primitive integers and for every
/// message type the paper's protocols exchange, so any existing
/// `Protocol` runs over UDP unchanged.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value; `None` on truncated or invalid input.
    fn decode(r: &mut WireReader<'_>) -> Option<Self>;
}

/// Decodes a complete payload: one `M`, with no bytes left over.
pub fn decode_exact<M: Wire>(buf: &[u8]) -> Option<M> {
    let mut r = WireReader::new(buf);
    let m = M::decode(&mut r)?;
    (r.remaining() == 0).then_some(m)
}

/// Encodes `header` + `msg` into `out` (cleared first): one record
/// standing alone, which is also the smallest frame the transport sends.
pub fn encode_datagram<M: Wire>(header: Header, msg: &M, out: &mut Vec<u8>) {
    out.clear();
    encode_record(header, msg, out);
}

/// Appends `header` + `msg` to `out` — one record of a frame. A frame is
/// records laid end to end: every [`Wire::decode`] consumes exactly its
/// own bytes, so the receiver finds the next record where this one stops.
pub fn encode_record<M: Wire>(header: Header, msg: &M, out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&header.from.to_le_bytes());
    out.extend_from_slice(&header.to.to_le_bytes());
    out.extend_from_slice(&header.lane.to_le_bytes());
    out.extend_from_slice(&header.seq.to_le_bytes());
    msg.encode(out);
}

/// Splits the record at the head of a received frame into its header and
/// what follows it (payload, then any further records). `None` if the
/// buffer is too short or carries the wrong magic/version.
pub fn decode_datagram(buf: &[u8]) -> Option<(Header, &[u8])> {
    if buf.len() < HEADER_LEN || buf[0] != MAGIC || buf[1] != VERSION {
        return None;
    }
    let mut r = WireReader::new(&buf[2..HEADER_LEN]);
    let header = Header {
        from: r.u16()?,
        to: r.u16()?,
        lane: r.u16()?,
        seq: r.u64()?,
    };
    Some((header, &buf[HEADER_LEN..]))
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u8()
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u16()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for Flag {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.value());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u8().map(Flag::new)
    }
}

impl Wire for IdlQuery {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Option<Self> {
        Some(IdlQuery)
    }
}

impl Wire for MeBroadcast {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MeBroadcast::Idl => 0,
            MeBroadcast::Ask => 1,
            MeBroadcast::Exit => 2,
            MeBroadcast::ExitCs => 3,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => MeBroadcast::Idl,
            1 => MeBroadcast::Ask,
            2 => MeBroadcast::Exit,
            3 => MeBroadcast::ExitCs,
            _ => return None,
        })
    }
}

impl Wire for MeFeedback {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MeFeedback::Id(id) => {
                out.push(0);
                id.encode(out);
            }
            MeFeedback::Yes => out.push(1),
            MeFeedback::No => out.push(2),
            MeFeedback::Ok => out.push(3),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => MeFeedback::Id(u64::decode(r)?),
            1 => MeFeedback::Yes,
            2 => MeFeedback::No,
            3 => MeFeedback::Ok,
            _ => return None,
        })
    }
}

impl<B: Wire, F: Wire> Wire for PifMsg<B, F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.broadcast.encode(out);
        self.feedback.encode(out);
        self.sender_state.encode(out);
        self.echoed_state.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(PifMsg {
            broadcast: B::decode(r)?,
            feedback: F::decode(r)?,
            sender_state: Flag::decode(r)?,
            echoed_state: Flag::decode(r)?,
        })
    }
}

impl Wire for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.src.encode(out);
        self.dst.encode(out);
        self.id.encode(out);
        self.data.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(Payload {
            src: u16::decode(r)?,
            dst: u16::decode(r)?,
            id: u64::decode(r)?,
            data: u64::decode(r)?,
        })
    }
}

impl Wire for HopAck {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HopAck::Refused => out.push(0),
            HopAck::Accepted(id) => {
                out.push(1);
                id.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => HopAck::Refused,
            1 => HopAck::Accepted(u64::decode(r)?),
            _ => return None,
        })
    }
}

impl Wire for ForwardMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match &self.payload {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                p.encode(out);
            }
        }
        self.ack.encode(out);
        self.sender_state.encode(out);
        self.echoed_state.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let payload = match r.u8()? {
            0 => None,
            1 => Some(Payload::decode(r)?),
            _ => return None,
        };
        Some(ForwardMsg {
            payload,
            ack: HopAck::decode(r)?,
            sender_state: Flag::decode(r)?,
            echoed_state: Flag::decode(r)?,
        })
    }
}

impl Wire for SnapQuery {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Option<Self> {
        Some(SnapQuery)
    }
}

impl Wire for ProbeDigest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.proc.encode(out);
        self.state_hash.encode(out);
        self.queue_depth.encode(out);
        self.in_flight.encode(out);
        self.served.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(ProbeDigest {
            proc: u16::decode(r)?,
            state_hash: u64::decode(r)?,
            queue_depth: u32::decode(r)?,
            in_flight: u32::decode(r)?,
            served: u64::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for MonitoredMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MonitoredMsg::Service(m) => {
                out.push(0);
                m.encode(out);
            }
            MonitoredMsg::Monitor(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => MonitoredMsg::Service(M::decode(r)?),
            1 => MonitoredMsg::Monitor(Wire::decode(r)?),
            _ => return None,
        })
    }
}

impl Wire for ShardedMeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.msg.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(ShardedMeMsg {
            shard: u32::decode(r)?,
            msg: Wire::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snapstab_core::idl::Id;
    use snapstab_core::me::MeMsg;

    fn roundtrip<M: Wire + PartialEq + std::fmt::Debug>(msg: M) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let back: M = decode_exact(&buf).expect("decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0xABu8);
        roundtrip(0xAB_CDu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(0x0123_4567_89AB_CDEFu64);
        roundtrip(());
        roundtrip(Flag::new(4));
    }

    #[test]
    fn me_messages_round_trip() {
        for b in [
            MeBroadcast::Idl,
            MeBroadcast::Ask,
            MeBroadcast::Exit,
            MeBroadcast::ExitCs,
        ] {
            for f in [
                MeFeedback::Id(42),
                MeFeedback::Yes,
                MeFeedback::No,
                MeFeedback::Ok,
            ] {
                roundtrip(PifMsg {
                    broadcast: b,
                    feedback: f,
                    sender_state: Flag::new(3),
                    echoed_state: Flag::new(1),
                });
            }
        }
        roundtrip(ShardedMeMsg {
            shard: 7,
            msg: PifMsg {
                broadcast: MeBroadcast::Ask,
                feedback: MeFeedback::Id(99),
                sender_state: Flag::new(0),
                echoed_state: Flag::new(4),
            },
        });
    }

    #[test]
    fn forward_messages_round_trip() {
        let payload = Payload {
            src: 2,
            dst: 5,
            id: 0x8000_0000_0000_0007,
            data: 0xDEAD_BEEF_CAFE_F00D,
        };
        for p in [None, Some(payload)] {
            for ack in [HopAck::Refused, HopAck::Accepted(0x42)] {
                roundtrip(ForwardMsg {
                    payload: p,
                    ack,
                    sender_state: Flag::new(3),
                    echoed_state: Flag::new(1),
                });
            }
        }
        roundtrip(payload);
        roundtrip(HopAck::Accepted(u64::MAX));
        roundtrip(HopAck::Refused);
    }

    #[test]
    fn forward_invalid_tags_rejected() {
        // Unknown payload-option tag.
        assert_eq!(decode_exact::<ForwardMsg>(&[9]), None);
        // Unknown ack tag.
        assert_eq!(decode_exact::<HopAck>(&[7]), None);
        // Truncated payload.
        let mut buf = Vec::new();
        ForwardMsg {
            payload: Some(Payload {
                src: 0,
                dst: 1,
                id: 1,
                data: 2,
            }),
            ack: HopAck::Refused,
            sender_state: Flag::new(0),
            echoed_state: Flag::new(0),
        }
        .encode(&mut buf);
        assert_eq!(decode_exact::<ForwardMsg>(&buf[..buf.len() - 1]), None);
        // Trailing bytes are malformed too.
        buf.push(0);
        assert_eq!(decode_exact::<ForwardMsg>(&buf), None);
    }

    #[test]
    fn datagram_round_trips_and_rejects_foreign_bytes() {
        let header = Header {
            from: 3,
            to: 5,
            lane: 2,
            seq: 0x1122_3344_5566_7788,
        };
        let msg: PifMsg<u32, u32> = PifMsg {
            broadcast: 7,
            feedback: 9,
            sender_state: Flag::new(2),
            echoed_state: Flag::new(3),
        };
        let mut buf = Vec::new();
        encode_datagram(header, &msg, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 4 + 4 + 1 + 1);
        let (h, payload) = decode_datagram(&buf).expect("well-formed");
        assert_eq!(h, header);
        assert_eq!(decode_exact::<PifMsg<u32, u32>>(payload), Some(msg));

        // Wrong magic, wrong version, truncated: all rejected.
        let mut bad = buf.clone();
        bad[0] = 0x00;
        assert!(decode_datagram(&bad).is_none());
        let mut bad = buf.clone();
        bad[1] = VERSION + 1;
        assert!(decode_datagram(&bad).is_none());
        assert!(decode_datagram(&buf[..HEADER_LEN - 1]).is_none());
    }

    #[test]
    fn decode_exact_rejects_trailing_and_truncated() {
        let mut buf = Vec::new();
        5u32.encode(&mut buf);
        buf.push(0); // trailing garbage
        assert_eq!(decode_exact::<u32>(&buf), None);
        assert_eq!(decode_exact::<u32>(&buf[..3]), None);
        assert_eq!(decode_exact::<u32>(&buf[..4]), Some(5));
    }

    #[test]
    fn invalid_enum_tags_rejected() {
        assert_eq!(decode_exact::<MeBroadcast>(&[9]), None);
        assert_eq!(decode_exact::<MeFeedback>(&[9]), None);
    }

    #[test]
    fn monitored_messages_round_trip() {
        type MonMsg = MonitoredMsg<PifMsg<MeBroadcast, MeFeedback>>;
        let service: MonMsg = MonitoredMsg::Service(PifMsg {
            broadcast: MeBroadcast::Ask,
            feedback: MeFeedback::Id(7),
            sender_state: Flag::new(2),
            echoed_state: Flag::new(3),
        });
        roundtrip(service);
        let digest = ProbeDigest {
            proc: 5,
            state_hash: 0xFEED_FACE_CAFE_BEEF,
            queue_depth: 42,
            in_flight: 1,
            served: 1_000_003,
        };
        roundtrip(digest);
        roundtrip(SnapQuery);
        let monitor: MonMsg = MonitoredMsg::Monitor(PifMsg {
            broadcast: SnapQuery,
            feedback: digest,
            sender_state: Flag::new(4),
            echoed_state: Flag::new(0),
        });
        roundtrip(monitor);
    }

    #[test]
    fn monitored_invalid_plane_tag_and_truncation_rejected() {
        type MonMsg = MonitoredMsg<PifMsg<MeBroadcast, MeFeedback>>;
        // Unknown plane tag.
        assert_eq!(decode_exact::<MonMsg>(&[2]), None);
        // Truncated monitor payload.
        let mut buf = Vec::new();
        MonitoredMsg::<PifMsg<MeBroadcast, MeFeedback>>::Monitor(PifMsg {
            broadcast: SnapQuery,
            feedback: ProbeDigest::default(),
            sender_state: Flag::new(0),
            echoed_state: Flag::new(0),
        })
        .encode(&mut buf);
        assert_eq!(decode_exact::<MonMsg>(&buf[..buf.len() - 1]), None);
        // Trailing bytes are malformed.
        buf.push(0);
        assert_eq!(decode_exact::<MonMsg>(&buf), None);
    }

    /// Decodes `bytes` and every prefix of it as an `M`: a value that
    /// decodes must re-encode to exactly the bytes it came from.
    fn decodes_canonically<M: Wire + std::fmt::Debug>(bytes: &[u8]) -> Result<(), TestCaseError> {
        for len in 0..=bytes.len() {
            if let Some(m) = decode_exact::<M>(&bytes[..len]) {
                let mut again = Vec::new();
                m.encode(&mut again);
                prop_assert_eq!(&again[..], &bytes[..len], "{:?}", m);
            }
        }
        Ok(())
    }

    /// Every message type a live service puts on a socket.
    fn every_message_type(bytes: &[u8]) -> Result<(), TestCaseError> {
        decodes_canonically::<MeMsg>(bytes)?;
        decodes_canonically::<PifMsg<IdlQuery, Id>>(bytes)?;
        decodes_canonically::<ForwardMsg>(bytes)?;
        decodes_canonically::<ShardedMeMsg>(bytes)?;
        decodes_canonically::<MonitoredMsg<MeMsg>>(bytes)?;
        decodes_canonically::<MonitoredMsg<ForwardMsg>>(bytes)
    }

    proptest! {
        /// Hostile payloads: arbitrary bytes never panic the decoder, and
        /// the encoding is positional with canonical tags, so whatever
        /// decodes re-encodes byte for byte. Bytes drawn below 5 make
        /// every enum tag valid often enough to reach the re-encode.
        #[test]
        fn arbitrary_bytes_decode_canonically_or_not_at_all(
            raw in proptest::collection::vec(any::<u8>(), 0..96),
            small in proptest::collection::vec(0u8..5, 0..96),
        ) {
            every_message_type(&raw)?;
            every_message_type(&small)?;
        }
    }
}

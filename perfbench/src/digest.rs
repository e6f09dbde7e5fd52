//! The simulated digest: a 64-bit FNV-1a hash over the words of every
//! simulated outcome a workload produces, in a fixed order. A
//! speed-only change to the simulator must reproduce it exactly; a
//! change to the model re-pins it (see [`PINNED`]).

/// The digest each workload's fixed pass must reproduce.
pub const PINNED: [(&str, u64); 3] = [
    ("bsp_throttle", 0x612d_ade2_1143_9ab6),
    ("phi256_global", 0xc081_82fd_0e8c_3a77),
    ("cluster_churn", 0xb555_02ed_b0c4_309c),
];

/// The pinned digest of `workload`.
pub fn pinned(workload: &str) -> Option<u64> {
    PINNED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, d)| d)
}

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a hasher over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one word.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Fold a length-prefixed run of words.
    pub fn words(self, ws: &[u64]) -> Self {
        ws.iter()
            .fold(self.word(ws.len() as u64), |d, &w| d.word(w))
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

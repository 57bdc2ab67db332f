//! Op scripts: the generated inputs, and nothing but the inputs.
//!
//! A workload turns `--seed` into a list of [`BmStep`]s. The same list is
//! what the full stack executes, what the stack-height ladder replays, and
//! what the script hash covers, so "the same inputs" is checkable.

/// SplitMix64: the harness's own generator, so scripts depend on nothing
/// but the seed (not on a vendored `rand` stand-in's stream).
#[derive(Debug, Clone)]
pub struct BmRng(u64);

impl BmRng {
    /// A generator for `seed`.
    #[must_use]
    pub fn bm_new(seed: u64) -> Self {
        BmRng(seed)
    }

    /// The next 64 bits.
    pub fn bm_next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn bm_below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias at these ranges (n < 2^32) is < 2^-32.
        ((u128::from(self.bm_next()) * u128::from(n)) >> 64) as u64
    }

    /// `len` printable bytes (so a failed comparison prints legibly).
    pub fn bm_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            for b in self.bm_next().to_le_bytes() {
                out.push(b'a' + (b % 26));
            }
        }
        out.truncate(len);
        out
    }

    /// Fisher-Yates shuffle.
    pub fn bm_shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.bm_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Latency class of an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmClass {
    /// Whole-file read, 4 KiB pread.
    Read,
    /// Point edit, whole-file rewrite, pwrite, create, unlink.
    Write,
    /// `mkdir`, and open/close of the long-lived `bigfile` descriptor.
    Other,
}

/// One foreground trace operation: a short, fixed sequence of system calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmOp {
    /// `open(R)`, `fstat`, `read(size)`, `close`; bytes checked against the
    /// model.
    ReadWhole { path: String },
    /// `open(RW)`, `seek`, `write`, `close`.
    Edit {
        path: String,
        offset: u64,
        data: Vec<u8>,
    },
    /// `open(create|truncate)`, `write`, `close` of an existing file.
    Rewrite { path: String, data: Vec<u8> },
    /// `open(create)`, `write`, `close` of a new file.
    Create { path: String, data: Vec<u8> },
    /// `unlink`.
    Unlink { path: String },
    /// `mkdir` (set-up scripts only).
    Mkdir { path: String },
    /// `open(RW)` into the client's long-lived descriptor.
    Open { path: String },
    /// `close` of the long-lived descriptor.
    Close,
    /// `seek` + `read` on the long-lived descriptor; bytes checked.
    Pread { offset: u64, len: usize },
    /// `seek` + `write` on the long-lived descriptor.
    Pwrite { offset: u64, data: Vec<u8> },
}

impl BmOp {
    /// The op's latency class.
    #[must_use]
    pub fn bm_class(&self) -> BmClass {
        match self {
            BmOp::ReadWhole { .. } | BmOp::Pread { .. } => BmClass::Read,
            BmOp::Edit { .. }
            | BmOp::Rewrite { .. }
            | BmOp::Create { .. }
            | BmOp::Unlink { .. }
            | BmOp::Pwrite { .. } => BmClass::Write,
            BmOp::Mkdir { .. } | BmOp::Open { .. } | BmOp::Close => BmClass::Other,
        }
    }

    /// Logical bytes this op writes (the denominator of the amplification
    /// metrics).
    #[must_use]
    pub fn bm_bytes_written(&self) -> u64 {
        match self {
            BmOp::Edit { data, .. }
            | BmOp::Rewrite { data, .. }
            | BmOp::Create { data, .. }
            | BmOp::Pwrite { data, .. } => data.len() as u64,
            _ => 0,
        }
    }

    /// Short name, used for span and trace records.
    #[must_use]
    pub fn bm_name(&self) -> &'static str {
        match self {
            BmOp::ReadWhole { .. } => "read_whole",
            BmOp::Edit { .. } => "edit",
            BmOp::Rewrite { .. } => "rewrite",
            BmOp::Create { .. } => "create",
            BmOp::Unlink { .. } => "unlink",
            BmOp::Mkdir { .. } => "mkdir",
            BmOp::Open { .. } => "open",
            BmOp::Close => "close",
            BmOp::Pread { .. } => "pread",
            BmOp::Pwrite { .. } => "pwrite",
        }
    }

    fn bm_hash_into(&self, h: &mut BmHash) {
        h.bm_bytes(self.bm_name().as_bytes());
        match self {
            BmOp::ReadWhole { path }
            | BmOp::Unlink { path }
            | BmOp::Mkdir { path }
            | BmOp::Open { path } => {
                h.bm_bytes(path.as_bytes());
            }
            BmOp::Edit { path, offset, data } => {
                h.bm_bytes(path.as_bytes());
                h.bm_u64(*offset);
                h.bm_bytes(data);
            }
            BmOp::Rewrite { path, data } | BmOp::Create { path, data } => {
                h.bm_bytes(path.as_bytes());
                h.bm_bytes(data);
            }
            BmOp::Close => {}
            BmOp::Pread { offset, len } => {
                h.bm_u64(*offset);
                h.bm_u64(*len as u64);
            }
            BmOp::Pwrite { offset, data } => {
                h.bm_u64(*offset);
                h.bm_bytes(data);
            }
        }
    }
}

/// One step of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmStep {
    /// A foreground op issued by client `client` (an index into the
    /// workload's client hosts).
    Op { client: usize, op: BmOp },
    /// One daemon tick: deliver notifications, run propagation on every
    /// host. Must leave no note pending.
    Tick,
    /// Partition the network `{1} | {2,3}`.
    Partition,
    /// Heal the network and run the daemons until every replica agrees.
    Heal,
}

/// FNV-1a 64 over a script, so two runs can show they executed the same
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmHash(pub u64);

impl Default for BmHash {
    fn default() -> Self {
        BmHash(0xcbf2_9ce4_8422_2325)
    }
}

impl BmHash {
    fn bm_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-terminate so ("ab","c") and ("a","bc") differ.
        self.bm_u64(bytes.len() as u64);
    }

    fn bm_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `steps` into the hash.
    pub fn bm_absorb(&mut self, steps: &[BmStep]) {
        for s in steps {
            match s {
                BmStep::Op { client, op } => {
                    self.bm_u64(*client as u64);
                    op.bm_hash_into(self);
                }
                BmStep::Tick => self.bm_bytes(b"tick"),
                BmStep::Partition => self.bm_bytes(b"partition"),
                BmStep::Heal => self.bm_bytes(b"heal"),
            }
        }
    }
}

/// Number of foreground ops in `steps`.
#[must_use]
pub fn bm_op_count(steps: &[BmStep]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, BmStep::Op { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = BmRng::bm_new(7);
        let mut b = BmRng::bm_new(7);
        for _ in 0..1000 {
            let x = a.bm_below(10);
            assert_eq!(x, b.bm_below(10));
            assert!(x < 10);
        }
        assert_ne!(BmRng::bm_new(1).bm_next(), BmRng::bm_new(2).bm_next());
        assert_eq!(BmRng::bm_new(3).bm_bytes(13).len(), 13);
    }

    #[test]
    fn hash_sees_every_field() {
        let base = vec![BmStep::Op {
            client: 0,
            op: BmOp::Edit {
                path: "/a".into(),
                offset: 4,
                data: vec![1, 2],
            },
        }];
        let digest = |steps: &[BmStep]| {
            let mut h = BmHash::default();
            h.bm_absorb(steps);
            h
        };
        let mut other = base.clone();
        if let BmStep::Op {
            op: BmOp::Edit { offset, .. },
            ..
        } = &mut other[0]
        {
            *offset = 5;
        }
        assert_eq!(digest(&base), digest(&base.clone()));
        assert_ne!(digest(&base), digest(&other));
        assert_ne!(digest(&base), digest(&[BmStep::Tick]));
        assert_eq!(bm_op_count(&base), 1);
        assert_eq!(bm_op_count(&[BmStep::Tick, BmStep::Heal]), 0);
    }
}

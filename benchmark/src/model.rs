//! The harness's in-memory model of the file tree: what every read must
//! return and what every replica must hold when the run ends.

use std::collections::{BTreeMap, BTreeSet};

use crate::script::BmOp;

/// Path -> contents, plus what is needed to judge concurrent rewrites made
/// on both sides of a partition.
#[derive(Debug, Default, Clone)]
pub struct BmModel {
    files: BTreeMap<String, Vec<u8>>,
    /// The path each client's long-lived descriptor is open on.
    open: BTreeMap<usize, String>,
    partitioned: bool,
    /// While partitioned: path -> client -> that client's last rewrite.
    rewrites: BTreeMap<String, BTreeMap<usize, Vec<u8>>>,
}

impl BmModel {
    /// Applies `op` (issued by `client`) and returns the bytes a read-class
    /// op must return (`None` for every other op).
    pub fn bm_apply(&mut self, client: usize, op: &BmOp) -> Option<Vec<u8>> {
        match op {
            BmOp::ReadWhole { path } => Some(self.files.get(path).cloned().unwrap_or_default()),
            BmOp::Edit { path, offset, data } => {
                Self::bm_splice(self.files.entry(path.clone()).or_default(), *offset, data);
                None
            }
            BmOp::Rewrite { path, data } => {
                if self.partitioned {
                    self.rewrites
                        .entry(path.clone())
                        .or_default()
                        .insert(client, data.clone());
                }
                self.files.insert(path.clone(), data.clone());
                None
            }
            BmOp::Create { path, data } => {
                self.files.insert(path.clone(), data.clone());
                None
            }
            BmOp::Unlink { path } => {
                self.files.remove(path);
                None
            }
            BmOp::Mkdir { .. } => None,
            BmOp::Open { path } => {
                self.open.insert(client, path.clone());
                None
            }
            BmOp::Close => {
                self.open.remove(&client);
                None
            }
            BmOp::Pread { offset, len } => {
                let file = self.open.get(&client).and_then(|p| self.files.get(p));
                Some(file.map_or_else(Vec::new, |f| {
                    let start = (*offset as usize).min(f.len());
                    let end = (start + len).min(f.len());
                    f[start..end].to_vec()
                }))
            }
            BmOp::Pwrite { offset, data } => {
                if let Some(path) = self.open.get(&client).cloned() {
                    Self::bm_splice(self.files.entry(path).or_default(), *offset, data);
                }
                None
            }
        }
    }

    fn bm_splice(file: &mut Vec<u8>, offset: u64, data: &[u8]) {
        let start = offset as usize;
        if file.len() < start + data.len() {
            file.resize(start + data.len(), 0);
        }
        file[start..start + data.len()].copy_from_slice(data);
    }

    /// Marks the start of a partition.
    pub fn bm_partition(&mut self) {
        self.partitioned = true;
        self.rewrites.clear();
    }

    /// Ends the partition. Returns the contested paths — those rewritten by
    /// more than one client while partitioned — each with the candidate
    /// contents (one per side); the converged replicas must hold one of
    /// them.
    pub fn bm_heal(&mut self) -> Vec<(String, Vec<Vec<u8>>)> {
        self.partitioned = false;
        std::mem::take(&mut self.rewrites)
            .into_iter()
            .filter(|(_, by_client)| by_client.len() > 1)
            .map(|(path, by_client)| (path, by_client.into_values().collect()))
            .collect()
    }

    /// Records which candidate a contested path converged to.
    pub fn bm_settle(&mut self, path: &str, winner: Vec<u8>) {
        self.files.insert(path.to_owned(), winner);
    }

    /// Every file and its expected contents.
    #[must_use]
    pub fn bm_files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }

    /// The directories that hold the model's files.
    #[must_use]
    pub fn bm_dirs(&self) -> BTreeSet<&str> {
        self.files
            .keys()
            .filter_map(|p| p.rsplit_once('/').map(|(d, _)| d))
            .filter(|d| !d.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_splice_and_reads_return_current_bytes() {
        let mut m = BmModel::default();
        m.bm_apply(
            0,
            &BmOp::Create {
                path: "/d/f".into(),
                data: b"hello world".to_vec(),
            },
        );
        m.bm_apply(
            0,
            &BmOp::Edit {
                path: "/d/f".into(),
                offset: 6,
                data: b"W".to_vec(),
            },
        );
        let got = m.bm_apply(
            0,
            &BmOp::ReadWhole {
                path: "/d/f".into(),
            },
        );
        assert_eq!(got.unwrap(), b"hello World");
        assert_eq!(m.bm_dirs().into_iter().collect::<Vec<_>>(), vec!["/d"]);
    }

    #[test]
    fn descriptor_ops_follow_the_open_path() {
        let mut m = BmModel::default();
        m.bm_apply(
            0,
            &BmOp::Create {
                path: "/big".into(),
                data: vec![b'a'; 16],
            },
        );
        m.bm_apply(
            0,
            &BmOp::Open {
                path: "/big".into(),
            },
        );
        m.bm_apply(
            0,
            &BmOp::Pwrite {
                offset: 4,
                data: b"zz".to_vec(),
            },
        );
        let got = m.bm_apply(0, &BmOp::Pread { offset: 3, len: 4 });
        assert_eq!(got.unwrap(), b"azza");
        m.bm_apply(0, &BmOp::Close);
        assert_eq!(
            m.bm_apply(0, &BmOp::Pread { offset: 0, len: 1 }),
            Some(vec![])
        );
    }

    #[test]
    fn only_two_sided_rewrites_are_contested() {
        let mut m = BmModel::default();
        let rw = |p: &str, d: &[u8]| BmOp::Rewrite {
            path: p.into(),
            data: d.to_vec(),
        };
        m.bm_partition();
        m.bm_apply(0, &rw("/x", b"left"));
        m.bm_apply(1, &rw("/x", b"right"));
        m.bm_apply(0, &rw("/y", b"only-left"));
        let contested = m.bm_heal();
        assert_eq!(contested.len(), 1);
        assert_eq!(contested[0].0, "/x");
        assert_eq!(contested[0].1, vec![b"left".to_vec(), b"right".to_vec()]);
        m.bm_settle("/x", b"left".to_vec());
        assert_eq!(m.bm_files()["/x"], b"left");
        assert_eq!(m.bm_files()["/y"], b"only-left");
    }
}
